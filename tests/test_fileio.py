"""File format round-trips and parse failures."""

import json
from fractions import Fraction

import numpy as np
import pytest

from lcplab import fileio
from lcplab.base import as_fraction
from lcplab.errors import InputError
from lcplab.fileio import (algebra_to_dict, canonical_json, dict_to_algebra,
                           load_algebra_file, save_algebra_file)
from lcplab.gallery import all_entries, fundamental_example, product_example
from lcplab.lcp import lcp_data_to_float, make_lcp_data
from lcplab.liealg import direct_sum_algebra, to_float_algebra, validate_algebra

F = Fraction


@pytest.fixture(scope="module")
def entries():
    return all_entries()


def test_round_trip_is_byte_idempotent(entries):
    for e in entries:
        d1 = algebra_to_dict(e.algebra, lcp=e.lcp, lattice=e.lattice)
        g2, lcp2, lat2 = dict_to_algebra(d1)
        d2 = algebra_to_dict(g2, lcp=lcp2, lattice=lat2)
        assert canonical_json(d1) == canonical_json(d2), e.name


def _round_trip_algebras(corpus):
    """The gallery, the corpus and the large exact benchmark inputs (the
    gallery's sl2_semidirect, and two and three copies of the fundamental
    example), each with its float twin."""
    fund = fundamental_example().algebra
    fund2 = direct_sum_algebra(fund, fund)
    exact = ([e.algebra for e in all_entries()] + list(corpus)
             + [fund2, direct_sum_algebra(fund2, fund)])
    return exact + [to_float_algebra(g) for g in exact]


def _same_scaled(a, b):
    (x, dx), (y, dy) = a, b
    if x.dtype == np.float64:
        # equal values: a file does not keep the sign of a zero
        return dx == dy == 1 and y.dtype == np.float64 and np.array_equal(x, y)
    flat = y.reshape(-1).tolist()
    return (dx == dy and x.shape == y.shape and x.reshape(-1).tolist() == flat
            and all(type(v) is int for v in flat))


def _written(value, mode):
    """One value as a file holds it: the reduced 'p/q' of its Fraction, or
    the float."""
    if mode == "exact":
        f = as_fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


def _dict_from_views(g):
    """The bracket records and metric rows as the writer once formatted them,
    from the rational views."""
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coeffs = {str(k): _written(v, g.mode)
                      for k, v in enumerate(g.bracket[i, j]) if v != 0}
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return brackets, [[_written(x, g.mode) for x in row] for row in g.gram]


def test_a_file_loads_to_the_scaled_form_it_was_written_from(random_corpus):
    # the same ints over the same denominator, or the same floats, and the
    # file is what the rational views format to
    for g in _round_trip_algebras(random_corpus):
        d = algebra_to_dict(g)
        assert (d["brackets"], d["metric"]) == _dict_from_views(g), g
        h, _, _ = dict_to_algebra(json.loads(canonical_json(d)))
        assert _same_scaled(g.scaled_bracket, h.scaled_bracket), g
        assert _same_scaled(g.scaled_gram, h.scaled_gram), g


# each value as a bracket coefficient, a metric entry or an entry of the LCP
# block of an exact file: the value it loads as, or the message that refuses it
_EXACT_PARSES = [
    ("3/4", F(3, 4)), ("-6/8", F(-3, 4)), ("0/1", F(0)), ("7", F(7)), (7, F(7)),
    ("1.5", F(3, 2)), (" 1/2", F(1, 2)), ("+1/2", F(1, 2)),
    ("1/0", "cannot parse exact scalar '1/0': Fraction(1, 0)"),
    ("1/-2", "cannot parse exact scalar '1/-2': Invalid literal for Fraction: '1/-2'"),
    ("--1/2", "cannot parse exact scalar '--1/2': Invalid literal for Fraction: '--1/2'"),
    ("1_0/3", F(10, 3)),
    ("\u00b2/3", "cannot parse exact scalar '\u00b2/3': Invalid literal for Fraction: '\u00b2/3'"),
    ("", "cannot parse exact scalar '': Invalid literal for Fraction: ''"),
    ("abc", "cannot parse exact scalar 'abc': Invalid literal for Fraction: 'abc'"),
    (1.5, "float scalar 1.5 not allowed in exact mode"),
    (True, "float scalar True not allowed in exact mode"),
    (None, "not an exact scalar: None"),
]


def _exact_file(where, value):
    d = {"dim": 2, "mode": "exact", "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1/1"}}],
         "metric": [["1/1", "0/1"], ["0/1", "1/1"]]}
    if where == "metric":
        d["metric"][1][1] = value
    elif where == "bracket":
        d["brackets"][0]["coeffs"]["1"] = value
    else:
        # the LCP field's one row is [1, value], where a zero is allowed too
        d["lcp"] = {"flat_ideal": [[0, 1]], "lee_form": [1, 0], "complement": [[1, 0]]}
        d["lcp"][where] = [1, value] if where == "lee_form" else [[1, value]]
    return d


def _lcp_entry(block, where):
    """The value that an LCP field holds at the place ``_exact_file`` puts it."""
    return block[where][1] if where == "lee_form" else block[where][0][1]


@pytest.mark.parametrize("where, prefix", [("bracket", "brackets[0].coeffs['1']"),
                                           ("metric", "metric"),
                                           ("flat_ideal", "lcp.flat_ideal"),
                                           ("lee_form", "lcp.lee_form"),
                                           ("complement", "lcp.complement")])
@pytest.mark.parametrize("value, want", _EXACT_PARSES, ids=repr)
def test_exact_scalars_parse_as_fractions_do(where, prefix, value, want):
    if isinstance(want, str):
        with pytest.raises(InputError) as exc:
            dict_to_algebra(_exact_file(where, value))
        assert str(exc.value) == f"{prefix}: {want}"
        return
    g, lcp, _ = dict_to_algebra(_exact_file(where, value))
    if where in ("bracket", "metric"):
        got = g.bracket[0, 1, 1] if where == "bracket" else g.gram[1, 1]
        assert got == want and type(got) is Fraction
        scaled, den = g.scaled_bracket if where == "bracket" else g.scaled_gram
        assert den == want.denominator  # the other entries are ints
        return
    got = _lcp_entry({"flat_ideal": lcp.flat_ideal.basis, "lee_form": lcp.lee_covector,
                      "complement": lcp.complement.basis}, where)
    assert got == want and type(got) is Fraction
    # and the writer gives it back as its reduced 'p/q'
    written = _lcp_entry(algebra_to_dict(g, lcp=lcp)["lcp"], where)
    assert written == f"{want.numerator}/{want.denominator}"


@pytest.mark.parametrize("value", ["1" * 5000, "1/" + "1" * 5000, "-" + "2" * 5000 + "/3"])
def test_numbers_past_the_digit_limit_are_refused_as_fractions_refuse_them(value):
    with pytest.raises(InputError) as want:
        as_fraction(value)
    with pytest.raises(InputError) as got:
        dict_to_algebra(_exact_file("metric", value))
    assert str(got.value) == f"metric: {want.value}"


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


def _float_dict():
    e = fundamental_example()
    return algebra_to_dict(to_float_algebra(e.algebra), lcp=lcp_data_to_float(e.lcp))


def _set_first_coeff(d, value):
    coeffs = d["brackets"][0]["coeffs"]
    coeffs[next(iter(coeffs))] = value


_FLOAT_FIELDS = {
    "bracket": (_set_first_coeff, r"brackets\[0\]\.coeffs"),
    "metric": (lambda d, value: d["metric"][1].__setitem__(1, value), "metric"),
    "flat_ideal": (lambda d, value: d["lcp"]["flat_ideal"][0].__setitem__(0, value),
                   r"lcp\.flat_ideal"),
    "lee_form": (lambda d, value: d["lcp"]["lee_form"].__setitem__(2, value), r"lcp\.lee_form"),
}


class TestFloatScalars:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10 ** 400, id="int_beyond_float")])
    @pytest.mark.parametrize("field", sorted(_FLOAT_FIELDS))
    def test_non_finite_scalar_names_its_field(self, field, value):
        # JSON readers accept NaN and Infinity; a float file must not
        put, where = _FLOAT_FIELDS[field]
        d = _float_dict()
        put(d, value)
        with pytest.raises(InputError, match=where + ".*not a finite number"):
            dict_to_algebra(d)

    @pytest.mark.parametrize("value", ["1.5", True])
    def test_float_file_takes_numbers_only(self, value):
        d = _float_dict()
        _set_first_coeff(d, value)
        with pytest.raises(InputError, match=r"brackets\[0\]\.coeffs"):
            dict_to_algebra(d)

    def test_huge_lee_form_rejected(self):
        # the zero bands of the structure checks grow with the square
        d = _float_dict()
        d["lcp"]["lee_form"][2] = 1e160
        with pytest.raises(InputError, match="square overflows"):
            dict_to_algebra(d)
        e = fundamental_example()
        with pytest.raises(InputError, match="square overflows"):
            make_lcp_data(to_float_algebra(e.algebra), [[1e160, 0.0, 0.0]], [0.0, 0.0, 1.0])

    def test_large_finite_lee_form_still_loads(self):
        d = _float_dict()
        d["lcp"]["lee_form"][2] = 1e150
        _, lcp, _ = dict_to_algebra(d)
        assert lcp.lee_covector[2] == 1e150


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

    @pytest.mark.parametrize("key", ["00", "01", "+1", "-0", " 1", "1 ", "0_1", "\u0661"])
    def test_coefficient_key_not_canonical(self, key):
        # int() reads each of these as an index, so "00" would alias "0"
        # and one coefficient would be dropped without an error
        d = _base_dict()
        d["brackets"][0]["coeffs"][key] = "1/1"
        with pytest.raises(InputError, match=r"brackets\[0\].*not a canonical index"):
            dict_to_algebra(d)

    def test_aliased_coefficient_keys_are_not_merged(self):
        d = _base_dict()
        d["brackets"][0]["coeffs"] = {"0": "-1", "00": "5"}
        with pytest.raises(InputError, match="'00'"):
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

    def test_metric_shape_is_checked_before_the_bracket_table(self, monkeypatch):
        # the n**3 bracket table of a declared dim of 1500 is a 25 GiB object
        # array; a 1 x 1 metric refuses the file before it is asked for
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("_scaled_bracket called")
        monkeypatch.setattr(fileio, "_scaled_bracket", spy)
        d = {"dim": 1500, "mode": "exact", "brackets": [], "metric": [["1/1"]]}
        with pytest.raises(InputError, match="1500 x 1500"):
            dict_to_algebra(d)
        assert calls == []

    def test_basis_length_mismatch(self):
        d = _base_dict()
        d["basis"] = ["X", "Y"]
        with pytest.raises(InputError, match="one name per dimension"):
            dict_to_algebra(d)

    @pytest.mark.parametrize("path, value, message", [
        ((), [], "top level must be a JSON object"),
        (("metric",), "1/1", "metric must be a non-empty list of rows"),
        (("brackets",), {}, "brackets must be a list of {i, j, coeffs} records"),
        (("brackets", 0), {"i": 0, "j": 1}, "brackets[0]: expected keys i, j, coeffs"),
        (("brackets", 0, "coeffs"), ["1/1"], "brackets[0]: coeffs must be an object"),
        (("brackets", 0, "coeffs"), {"3": "1/1"},
         "brackets[0]: coefficient index 3 out of range"),
        (("lcp", "lee_form"), "0/1", "lcp.lee_form must be a list"),
        (("lattice",), {"t0": 1.0}, "lattice block needs integer_matrix"),
    ], ids=["top_level", "metric", "brackets", "record_keys", "coeffs", "coeff_index",
            "lee_form", "lattice"])
    def test_a_malformed_block_is_refused_by_name(self, path, value, message):
        # value replaces the part of the fundamental example's file at path
        d = _base_dict()
        if not path:
            d = value
        else:
            *head, last = path
            part = d
            for key in head:
                part = part[key]
            part[last] = value
        with pytest.raises(InputError) as exc:
            dict_to_algebra(d)
        assert str(exc.value) == message

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


def test_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(InputError, match="not UTF-8"):
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
