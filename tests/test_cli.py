"""Exit codes, report contents, and output determinism of the command line."""

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import lcplab
from lcplab import cli
from lcplab.base import canonical_json
from lcplab.cli import build_parser, main, resolve_tolerance, run_analysis
from lcplab.errors import InputError, NumericalAmbiguityError, TheoremViolationError
from lcplab.fileio import algebra_to_dict, load_algebra_file, save_algebra_file
from lcplab.gallery import fundamental_example
from lcplab.holonomy import _first_eigensplit
from lcplab.lcp import lcp_data_to_float
from lcplab.liealg import (bracket_table, direct_sum_algebra, make_algebra, to_float_algebra,
                           validate_algebra)


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


# so(3)'s brackets with [e0, e2] = e0: the Jacobi identity fails
NON_JACOBI = {
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


def _suggestion_names_analyze_options(err):
    """The suggestion line of an exit-3 message names options that
    ``analyze`` has, and no other setting."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["analyze"]._actions for s in a.option_strings}
    suggestion = err.split("suggestion: ", 1)[1]
    named = set(re.findall(r"--[a-z][a-z-]*", suggestion))
    return bool(named) and named <= options and not re.search(r"[a-z]_[a-z]", suggestion)


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

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_default_written_out_gives_the_default_bytes(self, where, monkeypatch,
                                                         exported, capsys):
        # 100.0 * 1e-9 is 1.0000000000000001e-07 in binary, not the default 1e-07
        path = str(exported / "fundamental.json")
        monkeypatch.delenv("LCPLAB_TOL", raising=False)
        assert main(["analyze", path, "--json"]) == 0
        default = capsys.readouterr().out
        extra = ["--tol", "1e-9"] if where == "flag" else []
        if where == "env":
            monkeypatch.setenv("LCPLAB_TOL", "1e-9")
        assert main(["analyze", path, "--json", *extra]) == 0
        assert capsys.readouterr().out == default

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

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 byte order mark is no UTF-8
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["analyze", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_aliased_coefficient_keys_exit_2(self, exported, tmp_path, capsys):
        # "00" names index 0 as "0" does; neither value may be dropped
        data = json.loads((exported / "fundamental.json").read_text())
        data["brackets"][0]["coeffs"] = {"0": "-1/1", "00": "5/1"}
        path = tmp_path / "aliased.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_boolean_dim_exits_2(self, tmp_path, capsys):
        path = tmp_path / "booldim.json"
        path.write_text(json.dumps({"dim": True, "mode": "exact",
                                    "brackets": [], "metric": [["1/1"]]}))
        assert main(["analyze", str(path)]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_dim_beyond_the_metric_exits_2(self, tmp_path, capsys):
        # refused before the bracket table: 10**18 object entries would be
        # an uncaught MemoryError, exit 1
        path = tmp_path / "hugedim.json"
        path.write_text(json.dumps({"dim": 10**6, "mode": "exact",
                                    "brackets": [], "metric": [["1/1"]]}))
        assert main(["analyze", str(path)]) == 2
        assert "metric must be a 1000000 x 1000000 matrix" in capsys.readouterr().err

    def test_broken_structure_exits_1(self, exported, tmp_path, capsys):
        data = json.loads((exported / "fundamental.json").read_text())
        data["brackets"][0]["coeffs"]["1"] = "1/1"  # u stops being an ideal
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "u_is_ideal: FAIL" in out

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_huge_float_coefficients_exit_2(self, exported, tmp_path, command, capsys):
        # the square of 1e308 overflows float64, and every zero band with it
        data = json.loads((exported / "strongly_irreducible.json").read_text())
        data["brackets"][0]["coeffs"]["0"] = 1e308
        data["brackets"][1]["coeffs"]["1"] = -1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["bracket", "metric", "lee_form"])
    def test_non_finite_float_scalars_exit_2(self, tmp_path, field, value, capsys):
        e = fundamental_example()
        data = algebra_to_dict(to_float_algebra(e.algebra), lcp=lcp_data_to_float(e.lcp))
        marker = 12345.0
        if field == "bracket":
            data["brackets"][0]["coeffs"]["0"] = marker
        elif field == "metric":
            data["metric"][1][1] = marker
        else:
            data["lcp"]["lee_form"][2] = marker
        # the bare JSON tokens that Python's reader accepts
        text = json.dumps(data).replace(str(marker), value)
        assert value in text
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_huge_float_lee_form_exits_2(self, tmp_path, capsys):
        e = fundamental_example()
        data = algebra_to_dict(to_float_algebra(e.algebra), lcp=lcp_data_to_float(e.lcp))
        data["lcp"]["lee_form"][2] = 1e160
        path = tmp_path / "huge_lee.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 2
        assert "square overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, code", [(1e77, 1), (1e100, 2), (1e150, 2)])
    def test_float_bracket_scaled_past_the_commutant_eigendecomposition(
            self, exported, tmp_path, scale, code):
        # every bracket coefficient of the float entry times scale, through
        # the command line, where a numpy warning is no error. At 1e77 the
        # split is still right (the Lee form, not scaled, fails the
        # structure: exit 1); from 1e100 the eigendecomposition of the
        # commutant's start does not converge, and the input is refused
        data = json.loads((exported / "strongly_irreducible.json").read_text())
        for b in data["brackets"]:
            b["coeffs"] = {k: v * scale for k, v in b["coeffs"].items()}
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        proc = TestColdImports._python("-m", "lcplab.cli", "analyze", str(path), "--json")
        assert proc.returncode == code, proc.stderr
        if code == 2:
            last = proc.stderr.splitlines()[-1]
            assert last.startswith("input error: float operators of magnitude ")
            assert "did not converge" in last and "Traceback" not in proc.stderr
        else:
            report = json.loads(proc.stdout)
            assert report["holonomy_dim"] == 3
            assert report["de_rham"]["factor_dims"] == [2, 3]

    def test_broken_algebra_exits_1(self, tmp_path, capsys):
        path = tmp_path / "nonjacobi.json"
        path.write_text(json.dumps(NON_JACOBI))
        assert main(["validate", str(path)]) == 1
        assert "jacobi" in capsys.readouterr().out

    def test_broken_algebra_analyze_lists_each_failure_and_stops(self, tmp_path, capsys):
        path = tmp_path / "nonjacobi.json"
        path.write_text(json.dumps(NON_JACOBI))
        failures = validate_algebra(load_algebra_file(str(path))[0]).failures()
        assert failures
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "dim 3, mode exact", "validation: FAIL", *(f"  {f}" for f in failures)]

    def test_validate_without_structure_data_exits_0(self, tmp_path, capsys):
        path = str(tmp_path / "fundamental_algebra.json")
        save_algebra_file(path, fundamental_example().algebra)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "algebra: ok (dim 3, mode exact)\nstructure data: none\n"

    def test_structure_violation_exits_1(self, exported, monkeypatch, capsys):
        def violated(g, seed=0):
            raise TheoremViolationError("factors do not span the whole algebra")

        monkeypatch.setattr(cli, "de_rham_splitting", violated)
        assert main(["analyze", str(exported / "fundamental.json")]) == 1
        assert capsys.readouterr().err == ("structure violation: "
                                           "factors do not span the whole algebra\n")

    def test_io_error_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["examples", "--export", str(blocker / "ex")]) == 2
        assert capsys.readouterr().err.startswith("io error: ")

    def test_ambiguous_eigensplit_exits_3(self, so3_pair_file, capsys):
        assert main(["analyze", so3_pair_file, "--tol", "3e-3"]) == 3
        err = capsys.readouterr().err
        assert "numerical ambiguity: de Rham splitting: " in err
        assert _suggestion_names_analyze_options(err)

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
        assert _suggestion_names_analyze_options(err)

    def test_no_stable_split_suggests_analyze_options(self):
        # only scalar candidates: none has two eigenspaces, and none is ambiguous
        tol = resolve_tolerance(None)
        with pytest.raises(NumericalAmbiguityError) as info:
            _first_eigensplit([np.eye(2)], np.eye(2), "float", tol, random.Random(0), "stage", 2)
        assert _suggestion_names_analyze_options(f"suggestion: {info.value.suggestion}")

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

    def test_irreducible_repeated_factor(self, capsys):
        # (X^2 - 50X + 1)^2: rounding its double roots misses the factor
        assert main(["lattice", "irreducible", "[1,-100,2502,-100,1]"]) == 0
        assert capsys.readouterr().out.strip() == "reducible"

    def test_irreducible_degree_cap_exits_2(self, capsys):
        coeffs = json.dumps([1] + [0] * 8 + [1])
        assert main(["lattice", "irreducible", coeffs]) == 2

    @pytest.mark.parametrize("command", ["irreducible", "roots"])
    @pytest.mark.parametrize("coeffs", ["[]", "[1.5,2,1]"])
    def test_bad_coefficients_exit_2(self, command, coeffs, capsys):
        assert main(["lattice", command, coeffs]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs", ["[0]", "[0,0]"])
    def test_roots_of_zero_polynomial_exit_2(self, coeffs, capsys):
        assert main(["lattice", "roots", coeffs]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "zero polynomial" in err

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

    @pytest.mark.parametrize("argv", [["conjugacy", "[[1,1],[1,2]]", "--json"],
                                      ["conjugacy", "[[1,1],[1,2]]"],
                                      ["probe", "[0.5, 1.5]"]])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_2(self, argv, tol, capsys):
        assert main(["lattice", *argv, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "positive" in captured.err

    def test_roots_has_no_tol(self, capsys):
        # the count is exact: there is no band to set
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "roots", "[1,-3,1]", "--tol", "1e-9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --tol 1e-9" in captured.err

    def test_roots_profile(self, capsys):
        assert main(["lattice", "roots", "[1,-3,3,-3,1]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"degree": 4, "on_circle": 2,
                           "real_off_circle": 2, "complex_off_circle": 0}

    @pytest.mark.parametrize("coeffs", ["[1,0,2,0,1]", "[1,-4,6,-4,1]"])
    def test_roots_profile_counts_repeated_roots(self, coeffs, capsys):
        # (X^2+1)^2 and (X-1)^4: all four roots lie on the circle
        assert main(["lattice", "roots", coeffs, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"degree": 4, "on_circle": 4,
                           "real_off_circle": 0, "complex_off_circle": 0}

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

    def test_conjugacy_defect_above_tolerance_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_conjugacy",
                            lambda matrix, solution: 2 * cli.CONJUGACY_DEFECT_TOL)
        assert main(["lattice", "conjugacy", "[[1,1],[1,2]]"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["reconstruction defect = 2.000e-08", "FAIL: defect exceeds 1e-08"]

    def test_conjugacy_negative_eigenvalue_exits_2(self, capsys):
        assert main(["lattice", "conjugacy", "[[-3,1],[-1,0]]"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_conjugacy_minus_identity(self, capsys):
        assert main(["lattice", "conjugacy", "[[-1,0],[0,-1]]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved"] is True and payload["t0"] == math.pi
        assert payload["defect"] < 1e-12

    @pytest.mark.parametrize("argv, where", [
        (["conjugacy", f"[[{10**400},0],[0,1]]"], "entry (0, 0)"),
        (["conjugacy", f"[[1,0],[0,{-10**400}]]", "--json"], "entry (1, 1)"),
    ])
    def test_integer_beyond_float_range_exits_2(self, argv, where, capsys):
        # the float-lane command cannot take it; it names it instead of
        # ending in an OverflowError traceback
        assert main(["lattice", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert f"{where} is beyond float range" in captured.err

    def test_integer_commands_answer_exactly_beyond_float_range(self, capsys):
        big = 10**400
        assert main(["lattice", "charpoly", f"[[{big},0],[0,1]]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["char_poly"] == [big, -big - 1, 1]
        # X^2 + 10^400 X + 1: its discriminant 10^800 - 4 is no square
        assert main(["lattice", "irreducible", f"[1,{big},1]"]) == 0
        assert capsys.readouterr().out == "irreducible\n"
        # X^2 + (10^400 + 1) X + 10^400 = (X + 1)(X + 10^400)
        assert main(["lattice", "irreducible", f"[{big},{big + 1},1]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["irreducible"] is False

    @pytest.mark.parametrize("argv, profile", [
        # X^2 + 10^400 X + 1: two real roots, near -10^400 and -10^-400
        (["roots", f"[1,{10**400},1]"], (2, 0, 2, 0)),
        # X + 10^400 and X^2 - 10^310: real roots -10^400 and +-10^155
        (["roots", f"[{10**400},1]", "--json"], (1, 0, 1, 0)),
        (["roots", json.dumps([-10**310, 0, 1]), "--json"], (2, 0, 2, 0)),
    ])
    def test_roots_answer_exactly_beyond_float_range(self, argv, profile, capsys):
        # the count is exact: an integer beyond float range is no input error
        assert main(["lattice", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        degree, on_circle, real_off, complex_off = profile
        if "--json" in argv:
            assert json.loads(captured.out) == {
                "degree": degree, "on_circle": on_circle,
                "real_off_circle": real_off, "complex_off_circle": complex_off}
        else:
            assert captured.out == (f"degree {degree}\non unit circle: {on_circle}\n"
                                    f"real off circle: {real_off}\n"
                                    f"complex off circle: {complex_off}\n")

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


class TestColdImports:
    """What a cold process imports. ``import lcplab`` and ``import
    lcplab.cli`` load no numpy; ``lattice charpoly``, ``irreducible``,
    ``roots`` and ``probe`` run on the standard library alone, and
    ``charpoly`` loads neither ``dataclasses`` nor ``inspect``; ``lattice
    conjugacy`` loads numpy but none of the algebra modules; no command
    loads scipy, and every gallery entry is analyzed in a process where
    ``import scipy`` fails."""

    # one child runs the commands in turn and lists the modules of the given
    # packages loaded after each; none is ever unloaded, so each list holds
    # every module that command or an earlier one imported
    _SCRIPT = ("import contextlib, io, json, sys\n"
               "from lcplab.cli import main\n"
               "commands, packages = json.loads(sys.argv[1]), sys.argv[2:]\n"
               "seen = {}\n"
               "for name, argv in commands.items():\n"
               "    with contextlib.redirect_stdout(io.StringIO()):\n"
               "        code = main(argv)\n"
               "    seen[name] = (code, sorted(m for m in sys.modules\n"
               "                               if any(m == p or m.startswith(p + '.')\n"
               "                                      for p in packages)))\n"
               "print(json.dumps(seen))\n")

    @staticmethod
    def _python(*argv):
        src = os.path.dirname(os.path.dirname(lcplab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)

    def _loaded_after(self, commands, *packages):
        proc = self._python("-c", self._SCRIPT, json.dumps(commands), *packages)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_scipy_module(self):
        proc = self._python("-c", "import sys, lcplab.cli; "
                                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("statement", ["import lcplab", "import lcplab.cli",
                                           "from lcplab import canonical_json, char_poly"])
    def test_import_loads_no_numpy(self, statement):
        proc = self._python("-c", f"import sys; {statement}; "
                                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_integer_commands_load_no_numpy(self):
        commands = {}
        for flags in ([], ["--json"]):
            commands.update({
                f"charpoly{flags}": ["lattice", "charpoly", "[[1,1],[1,2]]", *flags],
                f"irreducible{flags}": ["lattice", "irreducible", "[1,-3,1]", *flags],
                f"reducible{flags}": ["lattice", "irreducible", "[1,-100,2502,-100,1]", *flags],
                f"probe{flags}": ["lattice", "probe", "[1, 1.5]", *flags],
                f"accumulation{flags}": ["lattice", "probe", "[1, 1.4142135623730951]", *flags],
                f"roots{flags}": ["lattice", "roots", "[1,-3,3,-3,1]", *flags],
                f"near circle{flags}": ["lattice", "roots", json.dumps(
                    [10**16 - 1, -2 * 10**16, 10**16]), *flags],
            })
        commands["bad input"] = ["lattice", "charpoly", "[[1.5]]"]
        seen = self._loaded_after(commands, "numpy")
        assert seen.pop("bad input") == [2, []]
        assert seen == {name: [0, []] for name in commands if name != "bad input"}

    def test_charpoly_loads_no_dataclasses(self):
        seen = self._loaded_after({"charpoly": ["lattice", "charpoly", "[[1,1],[1,2]]"]},
                                  "dataclasses", "inspect")
        assert seen == {"charpoly": [0, []]}

    def test_float_lattice_commands_load_no_algebra_module(self):
        commands = {
            "conjugacy": ["lattice", "conjugacy", "[[0,0,0,-1],[1,0,0,3],[0,1,0,-3],[0,0,1,3]]"],
        }
        algebra = [f"lcplab.{m}" for m in ("holonomy", "lcp", "liealg", "gallery", "fileio")]
        seen = self._loaded_after(commands, "numpy", *algebra)
        for name in commands:
            code, loaded = seen[name]
            assert code == 0 and "numpy" in loaded, name
            assert not [m for m in loaded if m.startswith("lcplab.")], name

    def test_commands_load_no_scipy_module(self, exported):
        fundamental = str(exported / "fundamental.json")
        commands = {
            "charpoly": ["lattice", "charpoly", "[[1,1],[1,2]]"],
            "irreducible": ["lattice", "irreducible", "[1,-3,1]"],
            "roots": ["lattice", "roots", "[1,-3,3,-3,1]"],
            "conjugacy": ["lattice", "conjugacy", "[[0,0,0,-1],[1,0,0,3],[0,1,0,-3],[0,0,1,3]]"],
            "probe": ["lattice", "probe", "[1, 1.5]"],
            "validate": ["validate", fundamental],
            "analyze": ["analyze", fundamental, "--json"],
        }
        seen = self._loaded_after(commands, "scipy")
        assert seen == {name: [0, []] for name in commands}

    def test_analyze_runs_without_scipy(self, exported):
        # the child blocks scipy before lcplab.cli is imported, so any import
        # of it raises ImportError; the report is the in-process one
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from lcplab.cli import main\n"
                  "sys.exit(main(['analyze', sys.argv[1], '--json']))\n")
        for path in sorted(exported.iterdir()):
            proc = self._python("-c", script, str(path))
            assert proc.returncode == 0, (path.name, proc.stderr)
            g, lcp, _ = load_algebra_file(str(path), tol=resolve_tolerance(None))
            report, code = run_analysis(g, lcp)
            assert code == 0
            assert proc.stdout == canonical_json(report), path.name

    def test_cold_conjugacy_still_solves(self):
        proc = self._python("-m", "lcplab.cli", "lattice", "conjugacy", "[[1,1],[1,2]]", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["solved"] is True
        assert payload["defect"] < 1e-12
