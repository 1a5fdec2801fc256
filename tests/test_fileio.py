"""File format round-trips and parse failures."""

import numpy as np
import pytest

from lcplab.errors import InputError
from lcplab.fileio import (algebra_to_dict, canonical_json, dict_to_algebra,
                           load_algebra_file, save_algebra_file)
from lcplab.gallery import all_entries, fundamental_example, product_example
from lcplab.liealg import validate_algebra


@pytest.fixture(scope="module")
def entries():
    return all_entries()


def test_round_trip_is_byte_idempotent(entries):
    for e in entries:
        d1 = algebra_to_dict(e.algebra, lcp=e.lcp, lattice=e.lattice)
        g2, lcp2, lat2 = dict_to_algebra(d1)
        d2 = algebra_to_dict(g2, lcp=lcp2, lattice=lat2)
        assert canonical_json(d1) == canonical_json(d2), e.name


def test_exact_scalars_travel_as_fraction_strings():
    e = fundamental_example()
    d = algebra_to_dict(e.algebra, lcp=e.lcp)
    for rec in d["brackets"]:
        for v in rec["coeffs"].values():
            assert isinstance(v, str) and "/" in v
    assert all(isinstance(x, str) for row in d["metric"] for x in row)
    assert all(isinstance(x, str) for x in d["lcp"]["lee_form"])


def test_float_scalars_travel_as_numbers(entries):
    e = next(x for x in entries if x.name == "strongly_irreducible")
    d = algebra_to_dict(e.algebra, lcp=e.lcp)
    for rec in d["brackets"]:
        for v in rec["coeffs"].values():
            assert isinstance(v, float)
    assert all(isinstance(x, float) for row in d["metric"] for x in row)


def test_saved_file_reloads_identically(tmp_path):
    e = fundamental_example()
    path = tmp_path / "fund.json"
    save_algebra_file(str(path), e.algebra, lcp=e.lcp, lattice=e.lattice)
    g, lcp, lat = load_algebra_file(str(path))
    assert g.dim == 3 and g.mode == "exact"
    assert g.basis_names == e.algebra.basis_names
    assert np.array_equal(g.bracket, e.algebra.bracket)
    assert np.array_equal(g.gram, e.algebra.gram)
    assert np.array_equal(lcp.flat_ideal.basis, e.lcp.flat_ideal.basis)
    assert np.array_equal(lcp.lee_covector, e.lcp.lee_covector)
    assert np.array_equal(lat.integer_matrix, e.lattice.integer_matrix)
    assert lat.t0 == e.lattice.t0


def test_translation_parts_survive(tmp_path):
    e = product_example()
    path = tmp_path / "prod.json"
    save_algebra_file(str(path), e.algebra, lcp=e.lcp, lattice=e.lattice)
    _, _, lat = load_algebra_file(str(path))
    assert lat.translation_parts == e.lattice.translation_parts


def _base_dict():
    e = fundamental_example()
    return algebra_to_dict(e.algebra, lcp=e.lcp, lattice=e.lattice)


class TestParseErrors:
    def test_missing_key(self):
        d = _base_dict()
        del d["metric"]
        with pytest.raises(InputError, match="missing required key 'metric'"):
            dict_to_algebra(d)

    def test_bad_dim(self):
        d = _base_dict()
        d["dim"] = 0
        with pytest.raises(InputError, match="positive integer"):
            dict_to_algebra(d)

    def test_bad_mode(self):
        d = _base_dict()
        d["mode"] = "symbolic"
        with pytest.raises(InputError, match="unknown scalar mode"):
            dict_to_algebra(d)

    def test_duplicate_pair_reports_position(self):
        d = _base_dict()
        d["brackets"].append(dict(d["brackets"][0]))
        pos = len(d["brackets"]) - 1
        with pytest.raises(InputError, match=rf"brackets\[{pos}\].*duplicate"):
            dict_to_algebra(d)

    def test_reversed_pair_is_also_a_duplicate(self):
        d = _base_dict()
        first = d["brackets"][0]
        d["brackets"].append({"i": first["j"], "j": first["i"],
                              "coeffs": dict(first["coeffs"])})
        with pytest.raises(InputError, match="duplicate bracket pair"):
            dict_to_algebra(d)

    def test_index_out_of_range(self):
        d = _base_dict()
        d["brackets"][0]["j"] = 9
        with pytest.raises(InputError, match=r"brackets\[0\].*out of range"):
            dict_to_algebra(d)

    def test_coefficient_key_not_integer(self):
        d = _base_dict()
        d["brackets"][0]["coeffs"]["x"] = "1/1"
        with pytest.raises(InputError, match=r"brackets\[0\].*'x'"):
            dict_to_algebra(d)

    def test_float_scalar_rejected_in_exact_mode(self):
        d = _base_dict()
        key = next(iter(d["brackets"][0]["coeffs"]))
        d["brackets"][0]["coeffs"][key] = 0.5
        with pytest.raises(InputError, match=r"brackets\[0\]\.coeffs"):
            dict_to_algebra(d)

    def test_metric_shape_mismatch(self):
        d = _base_dict()
        d["metric"] = d["metric"][:2]
        with pytest.raises(InputError, match="3 x 3"):
            dict_to_algebra(d)

    def test_basis_length_mismatch(self):
        d = _base_dict()
        d["basis"] = ["X", "Y"]
        with pytest.raises(InputError, match="one name per dimension"):
            dict_to_algebra(d)

    def test_lcp_block_needs_lee_form(self):
        d = _base_dict()
        del d["lcp"]["lee_form"]
        with pytest.raises(InputError, match="lee_form"):
            dict_to_algebra(d)

    def test_lattice_rejects_non_integers(self):
        d = _base_dict()
        d["lattice"]["integer_matrix"] = [[1, 1], [1, 2.5]]
        with pytest.raises(InputError, match="integer rows"):
            dict_to_algebra(d)

    def test_boolean_dim_rejected(self):
        d = _base_dict()
        d["dim"] = True
        with pytest.raises(InputError, match="positive integer"):
            dict_to_algebra(d)

    def test_boolean_indices_rejected(self):
        # as numpy indices, False and True would act as a mask, not 0 and 1
        d = _base_dict()
        d["brackets"][0]["i"], d["brackets"][0]["j"] = False, True
        with pytest.raises(InputError, match=r"brackets\[0\].*out of range"):
            dict_to_algebra(d)

    def test_lattice_rejects_booleans(self):
        d = _base_dict()
        d["lattice"]["integer_matrix"] = [[True]]
        with pytest.raises(InputError, match="integer rows"):
            dict_to_algebra(d)

    def test_lattice_rejects_nonsquare(self):
        d = _base_dict()
        d["lattice"]["integer_matrix"] = [[1, 1, 0], [1, 2, 0]]
        with pytest.raises(InputError, match="square"):
            dict_to_algebra(d)

    @pytest.mark.parametrize("t0", ["abc", "1.5", [1], True, False,
                                    float("nan"), float("inf")])
    def test_lattice_rejects_bad_t0(self, t0):
        # a boolean is no number in this format, and "1.5" is a string
        d = _base_dict()
        d["lattice"]["t0"] = t0
        with pytest.raises(InputError, match=r"lattice\.t0"):
            dict_to_algebra(d)

    @pytest.mark.parametrize("parts", [["x"], [None], [1.0, True], [[1.0]],
                                       [1.0, float("nan")], "1.0", 1.0, [10 ** 400]])
    def test_lattice_rejects_bad_translation_parts(self, parts):
        d = _base_dict()
        d["lattice"]["translation_parts"] = parts
        with pytest.raises(InputError, match=r"lattice\.translation_parts"):
            dict_to_algebra(d)

    def test_lattice_accepts_integer_t0_and_parts(self):
        d = _base_dict()
        d["lattice"]["t0"] = 2
        d["lattice"]["translation_parts"] = [1, 0.5]
        _, _, lat = dict_to_algebra(d)
        assert lat.t0 == 2.0 and isinstance(lat.t0, float)
        assert lat.translation_parts == (1.0, 0.5)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 3,\n  "mode": oops}\n')
    with pytest.raises(InputError, match="line 2, column"):
        load_algebra_file(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_algebra_file(str(tmp_path / "nope.json"))


def test_parsing_skips_domain_checks():
    # [[e2, e0], e1] breaks the Jacobi identity; the file still loads and
    # the failure surfaces through validation, not parsing.
    d = {
        "dim": 3,
        "mode": "exact",
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1/1"}},
            {"i": 1, "j": 2, "coeffs": {"0": "1/1"}},
            {"i": 0, "j": 2, "coeffs": {"0": "1/1"}},
        ],
        "metric": [["1/1", "0/1", "0/1"],
                   ["0/1", "1/1", "0/1"],
                   ["0/1", "0/1", "1/1"]],
    }
    g, lcp, lat = dict_to_algebra(d)
    assert lcp is None and lat is None
    report = validate_algebra(g)
    assert not report.passed
    assert report.jacobi_violations
