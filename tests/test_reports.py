"""Whole canonical reports of the worked examples, pinned field by field.

Other tests check single verdicts, and the determinism criterion only
checks that two runs agree with each other; these compare the complete
``run_analysis`` report and exit code with stored values, so any change
to a report's content or layout shows up here. ``tool_versions`` is left
out because it names the installed interpreter and libraries.
"""

import pytest

from lcplab.cli import run_analysis
from lcplab.fileio import canonical_json
from lcplab.gallery import (fundamental_example, product_example,
                            sl_example, strongly_irreducible_example)
from lcplab.liealg import direct_sum_algebra, to_float_algebra

_DEFAULT_POLICY = {"eigen_cluster_tol": 1e-07, "rank_tol": 1e-09}
_STRUCTURE_OK = {
    "adapted": True, "closed": True, "lee_formula_consistent": True,
    "nonzero": True, "overall": True, "proper": True, "u_is_ideal": True,
    "u_weyl_flat": True, "u_weyl_parallel": True, "unimodular": True,
    "weyl_nonflat": True,
}

EXPECTED = {
    "fundamental": {
        "de_rham": {"factor_dims": [3], "factor_is_flat": [False],
                    "factors_are_subalgebras": [True],
                    "flat_factor_index": None, "promoted_to_float": False},
        "decomposability": {"decomposable": False, "dim_bound_satisfied": True,
                            "principal_factor_dim": 3, "q": 1,
                            "touched_factors": [0], "witness": None},
        "dim": 3,
        "holonomy_dim": 3,
        "lcp_report": _STRUCTURE_OK,
        "mode": "exact",
        "random_seed": 0,
        "reducing_witness": None,
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    "product": {
        "de_rham": {"factor_dims": [1, 3], "factor_is_flat": [True, False],
                    "factors_are_subalgebras": [True, True],
                    "flat_factor_index": 0, "promoted_to_float": False},
        "decomposability": {"decomposable": True, "dim_bound_satisfied": True,
                            "principal_factor_dim": 3, "q": 1,
                            "touched_factors": [1],
                            "witness": {"s1_dim": 3, "s2_dim": 1}},
        "dim": 4,
        "holonomy_dim": 3,
        "lcp_report": _STRUCTURE_OK,
        "mode": "exact",
        "random_seed": 0,
        "reducing_witness": {"s1_dim": 1, "s2_dim": 3},
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    "strongly_irreducible": {
        "de_rham": {"factor_dims": [2, 3], "factor_is_flat": [True, False],
                    "factors_are_subalgebras": [True, True],
                    "flat_factor_index": 0, "promoted_to_float": False},
        "decomposability": {"decomposable": True, "dim_bound_satisfied": True,
                            "principal_factor_dim": 3, "q": 1,
                            "touched_factors": [1],
                            "witness": {"s1_dim": 3, "s2_dim": 2}},
        "dim": 5,
        "holonomy_dim": 3,
        "lcp_report": _STRUCTURE_OK,
        "mode": "float",
        "random_seed": 0,
        "reducing_witness": {"s1_dim": 2, "s2_dim": 3},
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    # a sum of two rational factors: the eigensplit stays exact
    "fundamental_squared": {
        "de_rham": {"factor_dims": [3, 3], "factor_is_flat": [False, False],
                    "factors_are_subalgebras": [True, True],
                    "flat_factor_index": None, "promoted_to_float": False},
        "decomposability": None,
        "dim": 6,
        "holonomy_dim": 6,
        "lcp_report": None,
        "mode": "exact",
        "random_seed": 0,
        "reducing_witness": {"s1_dim": 3, "s2_dim": 3},
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    # the 14-dimensional sl(2) semidirect sum with its structure data: the
    # one worked example whose holonomy (all of so(14)) is large
    "sl2_semidirect": {
        "de_rham": {"factor_dims": [14], "factor_is_flat": [False],
                    "factors_are_subalgebras": [True],
                    "flat_factor_index": None, "promoted_to_float": False},
        "decomposability": {"decomposable": False, "dim_bound_satisfied": True,
                            "principal_factor_dim": 14, "q": 1,
                            "touched_factors": [0], "witness": None},
        "dim": 14,
        "holonomy_dim": 91,
        "lcp_report": _STRUCTURE_OK,
        "mode": "exact",
        "random_seed": 0,
        "reducing_witness": None,
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    # the dim-29 rung of the size ladder, sl_example(3) with its structure
    # data: the largest input whose whole analysis a test runs
    "sl_example_3": {
        "de_rham": {"factor_dims": [29], "factor_is_flat": [False],
                    "factors_are_subalgebras": [True],
                    "flat_factor_index": None, "promoted_to_float": False},
        "decomposability": {"decomposable": False, "dim_bound_satisfied": True,
                            "principal_factor_dim": 29, "q": 1,
                            "touched_factors": [0], "witness": None},
        "dim": 29,
        "holonomy_dim": 406,
        "lcp_report": _STRUCTURE_OK,
        "mode": "exact",
        "random_seed": 0,
        "reducing_witness": None,
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
    # the float twin of sl2_semidirect summed with itself: two curved
    # factors, found by a commutant that starts from 406 symmetric
    # operators on the 28-dimensional curved block
    "sl2_sl2_float": {
        "de_rham": {"factor_dims": [14, 14], "factor_is_flat": [False, False],
                    "factors_are_subalgebras": [True, True],
                    "flat_factor_index": None, "promoted_to_float": False},
        "decomposability": None,
        "dim": 28,
        "holonomy_dim": 182,
        "lcp_report": None,
        "mode": "float",
        "random_seed": 0,
        "reducing_witness": {"s1_dim": 14, "s2_dim": 14},
        "tolerance_policy": _DEFAULT_POLICY,
        "unimodular": True,
        "validation": {"failures": [], "passed": True},
    },
}


def _input(name):
    if name == "fundamental_squared":
        g = fundamental_example().algebra
        return direct_sum_algebra(g, g), None
    if name == "sl2_sl2_float":
        g = sl_example().algebra
        return to_float_algebra(direct_sum_algebra(g, g)), None
    if name == "sl_example_3":
        entry = sl_example(3)
        return entry.algebra, entry.lcp
    entry = {"fundamental": fundamental_example, "product": product_example,
             "strongly_irreducible": strongly_irreducible_example,
             "sl2_semidirect": sl_example}[name]()
    return entry.algebra, entry.lcp


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_matches_stored_value(name):
    g, data = _input(name)
    report, code = run_analysis(g, data, seed=0)
    assert code == 0
    assert set(report["tool_versions"]) == {"lcplab", "numpy", "python", "scipy"}
    del report["tool_versions"]
    assert report == EXPECTED[name]
    # equal dicts can still serialise differently (True versus 1)
    assert canonical_json(report) == canonical_json(EXPECTED[name])
