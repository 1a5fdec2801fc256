"""Exit codes, report contents, and output determinism of the command line."""

import json
import math

import pytest

from lcplab.cli import main, resolve_tolerance, run_analysis
from lcplab.errors import InputError
from lcplab.fileio import save_algebra_file
from lcplab.gallery import fundamental_example
from lcplab.liealg import bracket_table, direct_sum_algebra, make_algebra


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    d = tmp_path_factory.mktemp("gallery")
    assert main(["examples", "--export", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def so3_pair_file(tmp_path_factory):
    # two irreducible factors force a genuine eigensplit of the commutant
    so3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    a = make_algebra(bracket_table(3, so3, "float"), mode="float")
    path = tmp_path_factory.mktemp("pair") / "so3so3.json"
    save_algebra_file(str(path), direct_sum_algebra(a, a))
    return str(path)


def _analyze_json(path, *extra):
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", str(path), "--json", *extra])
    return json.loads(buf.getvalue()), code


class TestExamples:
    def test_list_names_every_entry(self, capsys):
        assert main(["examples", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fundamental", "product", "strongly_irreducible",
                     "sl2_semidirect"):
            assert name in out
        assert "note:" in out

    def test_export_writes_one_file_per_entry(self, exported):
        names = sorted(p.name for p in exported.iterdir())
        assert names == ["fundamental.json", "product.json",
                         "sl2_semidirect.json", "strongly_irreducible.json"]

    def test_exported_files_validate(self, exported, capsys):
        for name in ("fundamental", "product", "strongly_irreducible"):
            assert main(["validate", str(exported / f"{name}.json")]) == 0
        out = capsys.readouterr().out
        assert "structure data: ok" in out


class TestAnalyze:
    def test_fundamental_report(self, exported):
        report, code = _analyze_json(exported / "fundamental.json")
        assert code == 0
        assert report["dim"] == 3 and report["mode"] == "exact"
        assert report["unimodular"] is True
        assert report["holonomy_dim"] == 3
        assert report["de_rham"]["factor_dims"] == [3]
        assert report["de_rham"]["flat_factor_index"] is None
        assert report["de_rham"]["factors_are_subalgebras"] == [True]
        assert report["reducing_witness"] is None
        assert report["lcp_report"]["overall"] is True
        dec = report["decomposability"]
        assert dec["decomposable"] is False
        assert dec["principal_factor_dim"] == 3
        assert dec["q"] == 1 and dec["dim_bound_satisfied"] is True

    def test_product_report(self, exported):
        report, code = _analyze_json(exported / "product.json")
        assert code == 0
        assert report["de_rham"]["factor_dims"] == [1, 3]
        assert report["de_rham"]["flat_factor_index"] == 0
        assert report["reducing_witness"] == {"s1_dim": 1, "s2_dim": 3}
        dec = report["decomposability"]
        assert dec["decomposable"] is True
        assert dec["touched_factors"] == [1]
        assert dec["witness"] is not None

    def test_strongly_irreducible_report(self, exported):
        report, code = _analyze_json(exported / "strongly_irreducible.json")
        assert code == 0
        assert report["mode"] == "float"
        assert report["de_rham"]["factor_dims"] == [2, 3]
        assert report["de_rham"]["flat_factor_index"] == 0
        dec = report["decomposability"]
        assert dec["decomposable"] is True
        assert dec["principal_factor_dim"] == 3 and dec["q"] == 1

    def test_human_output_mentions_the_verdicts(self, exported, capsys):
        assert main(["analyze", str(exported / "product.json")]) == 0
        out = capsys.readouterr().out
        assert "decomposable: yes" in out
        assert "metric factors: (1, 3)" in out

    def test_byte_identical_reports_for_same_seed(self, exported, capsys):
        path = str(exported / "strongly_irreducible.json")
        assert main(["analyze", path, "--json", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", path, "--json", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_seed_lands_in_report(self, exported):
        report, _ = _analyze_json(exported / "fundamental.json", "--seed", "11")
        assert report["random_seed"] == 11


class TestToleranceResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("LCPLAB_TOL", raising=False)
        tol = resolve_tolerance(None)
        assert tol.rank_tol == 1e-9

    def test_env_var(self, monkeypatch, exported):
        monkeypatch.setenv("LCPLAB_TOL", "1e-8")
        report, _ = _analyze_json(exported / "fundamental.json")
        assert report["tolerance_policy"]["rank_tol"] == 1e-8

    def test_flag_beats_env(self, monkeypatch, exported):
        monkeypatch.setenv("LCPLAB_TOL", "1e-8")
        report, _ = _analyze_json(exported / "fundamental.json", "--tol", "1e-5")
        assert report["tolerance_policy"]["rank_tol"] == 1e-5

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("LCPLAB_TOL", "tiny")
        with pytest.raises(InputError, match="LCPLAB_TOL"):
            resolve_tolerance(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError, match="positive"):
            resolve_tolerance(0.0)
        with pytest.raises(InputError, match="positive"):
            resolve_tolerance(math.inf)


class TestExitCodes:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_boolean_dim_exits_2(self, tmp_path, capsys):
        path = tmp_path / "booldim.json"
        path.write_text(json.dumps({"dim": True, "mode": "exact",
                                    "brackets": [], "metric": [["1/1"]]}))
        assert main(["analyze", str(path)]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_broken_structure_exits_1(self, exported, tmp_path, capsys):
        data = json.loads((exported / "fundamental.json").read_text())
        data["brackets"][0]["coeffs"]["1"] = "1/1"  # u stops being an ideal
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "u_is_ideal: FAIL" in out

    def test_broken_algebra_exits_1(self, tmp_path, capsys):
        data = {
            "dim": 3, "mode": "exact",
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"2": "1/1"}},
                {"i": 1, "j": 2, "coeffs": {"0": "1/1"}},
                {"i": 0, "j": 2, "coeffs": {"0": "1/1"}},
            ],
            "metric": [["1/1", "0/1", "0/1"],
                       ["0/1", "1/1", "0/1"],
                       ["0/1", "0/1", "1/1"]],
        }
        path = tmp_path / "nonjacobi.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "jacobi" in capsys.readouterr().out

    def test_ambiguous_eigensplit_exits_3(self, so3_pair_file, capsys):
        assert main(["analyze", so3_pair_file, "--tol", "3e-3"]) == 3
        err = capsys.readouterr().err
        assert "numerical ambiguity: de Rham splitting: " in err
        assert "suggestion" in err

    def test_ambiguous_flat_witness_exits_3(self, tmp_path, capsys):
        # the same close eigen-gap, met while cutting a flat block for the
        # reducing pair, is an ambiguity too and not a structure violation
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({"dim": 2, "mode": "float", "brackets": [],
                                    "metric": [[1.0, 0.0], [0.0, 1.0]]}))
        assert main(["analyze", str(path), "--tol", "3e-3"]) == 3
        err = capsys.readouterr().err
        assert "numerical ambiguity: flat reducing pair: " in err
        assert "structure violation" not in err

    def test_same_file_passes_at_default_tolerance(self, so3_pair_file):
        report, code = _analyze_json(so3_pair_file)
        assert code == 0
        assert sorted(report["de_rham"]["factor_dims"]) == [3, 3]


class TestRunAnalysis:
    def test_invalid_algebra_short_circuits(self):
        bad = bracket_table(3, {(0, 1): {2: 1}, (1, 2): {0: 1},
                                (0, 2): {0: 1}})
        g = make_algebra(bad, check=False)
        report, code = run_analysis(g)
        assert code == 1
        assert report["validation"]["passed"] is False
        assert report["unimodular"] is None
        assert report["de_rham"] is None

    def test_structure_failure_keeps_geometry(self):
        e = fundamental_example()
        from lcplab.lcp import make_lcp_data
        bad = make_lcp_data(e.algebra, [[0, 1, 0]], [0, 0, 1])
        report, code = run_analysis(e.algebra, bad)
        assert code == 1
        assert report["holonomy_dim"] == 3
        assert report["lcp_report"]["overall"] is False
        assert report["decomposability"] is None


class TestLattice:
    def test_charpoly_display(self, capsys):
        assert main(["lattice", "charpoly", "[[1,1],[1,2]]"]) == 0
        assert capsys.readouterr().out.strip() == "1 -3 1"

    def test_charpoly_json(self, capsys):
        assert main(["lattice", "charpoly", "[[1,1],[1,2]]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["char_poly"] == [1, -3, 1]

    def test_charpoly_rejects_ragged(self, capsys):
        assert main(["lattice", "charpoly", "[[1,1],[1]]"]) == 2
        assert "equal-length" in capsys.readouterr().err

    def test_charpoly_rejects_bad_json(self, capsys):
        assert main(["lattice", "charpoly", "[[1,1],[1,"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_irreducible_verdicts(self, capsys):
        assert main(["lattice", "irreducible", "[1,-3,3,-3,1]"]) == 0
        assert capsys.readouterr().out.strip() == "irreducible"
        assert main(["lattice", "irreducible", "[1,-3,1]"]) == 0
        assert capsys.readouterr().out.strip() == "irreducible"
        assert main(["lattice", "irreducible", "[1,0,2,0,1]"]) == 0
        assert capsys.readouterr().out.strip() == "reducible"

    def test_irreducible_degree_cap_exits_2(self, capsys):
        coeffs = json.dumps([1] + [0] * 8 + [1])
        assert main(["lattice", "irreducible", coeffs]) == 2

    @pytest.mark.parametrize("command", ["irreducible", "roots"])
    @pytest.mark.parametrize("coeffs", ["[]", "[1.5,2,1]"])
    def test_bad_coefficients_exit_2(self, command, coeffs, capsys):
        assert main(["lattice", command, coeffs]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, where", [
        (["irreducible", "[1.5,2,1]"], "coefficient 0"),
        (["roots", "[1,2.5,1]"], "coefficient 1"),
        (["charpoly", "[[1.0,1],[1,2]]"], "entry (0, 0)"),
    ])
    def test_float_input_named_as_not_an_integer(self, argv, where, capsys):
        # the lattice commands have no scalar mode; the message must not cite one
        assert main(["lattice", *argv]) == 2
        err = capsys.readouterr().err
        assert f"{where} = " in err and "is not an integer" in err
        assert "exact mode" not in err

    @pytest.mark.parametrize("argv", [["roots", "[1,0,1]"],
                                      ["conjugacy", "[[1,1],[1,2]]"],
                                      ["probe", "[0.5, 1.5]"]])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_2(self, argv, tol, capsys):
        # an infinite band would put the roots 2.618... and 0.381... of
        # X^2 - 3X + 1 on the unit circle
        assert main(["lattice", *argv, "--tol", tol]) == 2
        assert "positive" in capsys.readouterr().err

    def test_roots_profile(self, capsys):
        assert main(["lattice", "roots", "[1,-3,3,-3,1]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"degree": 4, "on_circle": 2,
                           "real_off_circle": 2, "complex_off_circle": 0}

    def test_conjugacy_golden(self, capsys):
        assert main(["lattice", "conjugacy", "[[1,1],[1,2]]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved"] is True
        assert math.isclose(payload["t0"], math.log((3 + math.sqrt(5)) / 2),
                            rel_tol=1e-12)
        assert payload["defect"] < 1e-12

    def test_conjugacy_defective_exits_1(self, capsys):
        assert main(["lattice", "conjugacy", "[[1,1],[0,1]]"]) == 1
        assert "not diagonalizable" in capsys.readouterr().out

    def test_conjugacy_negative_eigenvalue_exits_2(self, capsys):
        assert main(["lattice", "conjugacy", "[[-1,0],[0,-1]]"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_probe_accumulation(self, capsys):
        values = json.dumps([1.0, math.sqrt(2)])
        assert main(["lattice", "probe", values, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["discrete"] is False
        assert payload["accumulation_detected"] is True

    def test_probe_discrete(self, capsys):
        assert main(["lattice", "probe", "[0.5, 1.5]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"accumulation_detected": False, "discrete": True,
                           "generator": 0.5, "rank": 1}

    def test_probe_rejects_non_numbers(self, capsys):
        assert main(["lattice", "probe", '["a", 1]']) == 2
        assert "list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["[NaN]", "[1e309]", "[1,NaN]", "[-Infinity, 2]"])
    def test_probe_rejects_non_finite_values(self, values, capsys):
        # the JSON reader takes NaN and Infinity and turns 1e309 into inf
        assert main(["lattice", "probe", values]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "finite" in err
