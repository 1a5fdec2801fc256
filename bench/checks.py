"""Output checks: every item either matches what its input implies or fails.

An item fails when it raises, exits with an unexpected code, or gives a
wrong verdict. Failures are always counted. A failure that matches one of
the defects listed in ``KNOWN_DEFECTS`` (all present at the commit that
introduced this benchmark) still counts as failed but does not make the
run incorrect; any other failure does.
"""
from __future__ import annotations

import math
from typing import Optional

KNOWN_DEFECTS = {
    "float_twin_holonomy":
        "the float twin of an exact corpus algebra gets another holonomy algebra "
        "than the exact lane: it reports a larger holonomy_dim, and with it other "
        "factors, or a splitting guard rail raises TheoremViolationError such as "
        "'holonomy invariant factor is not connection invariant' (default seed: "
        "c092f; seed 5: c007f; seed 103: c013f, c044f, c091f, c189f)",
    "repeated_factor":
        "a characteristic polynomial with a repeated factor, such as "
        "(X^2-50X+1)^2 or (X^2+1)^2, gets a wrong verdict from the "
        "root-based lattice helpers",
}

# verdict fields compared against the golden file and between exact and
# float twins; promoted_to_float is left out on purpose, so that keeping an
# exact input exact does not read as a regression
VERDICT_KEYS = ("valid", "factors", "holonomy_dim", "unimodular", "lcp_overall",
                "decomposable", "principal_factor_dim", "q", "dim_bound_satisfied")


def verdicts(report: dict) -> dict:
    """The checked verdicts of one ``analyze`` report.

    Factors are (dim, is_flat) pairs in sorted order: the verdict is the
    multiset of factors, whatever order the report lists them in.
    """
    out = {"valid": report["validation"]["passed"]}
    dr = report["de_rham"]
    if dr is not None:
        out["factors"] = sorted([d, f] for d, f in zip(dr["factor_dims"], dr["factor_is_flat"]))
        out["holonomy_dim"] = report["holonomy_dim"]
        out["unimodular"] = report["unimodular"]
    lrep = report["lcp_report"]
    if lrep is not None:
        out["lcp_overall"] = lrep["overall"]
    dec = report["decomposability"]
    if dec is not None:
        for key in ("decomposable", "principal_factor_dim", "q", "dim_bound_satisfied"):
            out[key] = dec[key]
    return out


def diff_verdicts(got: dict, want: dict) -> list[str]:
    return [f"{k}: got {got.get(k)!r}, want {want.get(k)!r}"
            for k in VERDICT_KEYS if got.get(k) != want.get(k)]


def same_payload(got, want, rel: float = 1e-6, abs_tol: float = 1e-9) -> bool:
    """Structural equality with a float tolerance, for CLI JSON payloads."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_payload(got[k], want[k], rel, abs_tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_payload(a, b, rel, abs_tol) for a, b in zip(got, want)))
    return got == want


def algebra_defect(is_twin: bool, exc: Optional[BaseException],
                   problems: list[str]) -> Optional[str]:
    """The known defect a failed algebra item shows, if any."""
    if not is_twin:
        return None
    if exc is not None:
        return "float_twin_holonomy" if type(exc).__name__ == "TheoremViolationError" else None
    if (any("holonomy_dim:" in p for p in problems)
            and all("holonomy_dim:" in p or "factors:" in p for p in problems)):
        return "float_twin_holonomy"
    return None


def lattice_problems(item, charpoly, irreducible, profile, conj, probe) -> list[str]:
    """Compare one lattice item's outputs with what its construction implies.

    ``conj`` is (solution, defect) or None when conjugacy is not run.
    """
    truth = item.truth
    bad = []
    if list(charpoly) != truth["char_poly"]:
        bad.append(f"char_poly {list(charpoly)} != {truth['char_poly']}")
    if irreducible != truth["irreducible"]:
        bad.append(f"irreducible {irreducible} != {truth['irreducible']}")
    got = [profile.degree, profile.on_circle, profile.real_off_circle,
           profile.complex_off_circle]
    if "profile" in truth:
        if got != truth["profile"]:
            bad.append(f"root profile {got} != {truth['profile']}")
    elif (got[0] != truth["degree"] or sum(got[1:]) != got[0]
          or got[1] % 2 or got[3] % 2 or got[1] == got[0]):
        # irreducible of degree >= 2: no roots at +-1, conjugate pairs, and
        # |constant| >= 2 keeps some root off the circle
        bad.append(f"root profile {got} is inconsistent")
    if conj is not None:
        solution, defect = conj
        if solution is None:
            bad.append("conjugacy: no solution for a diagonalizable matrix")
        elif not defect <= 1e-8 or not math.isclose(solution.t0, truth["t0"], rel_tol=1e-9):
            bad.append(f"conjugacy: t0 {solution.t0!r} (want {truth['t0']!r}), "
                       f"defect {defect:.2e}")
    if probe.discrete != truth["discrete"]:
        bad.append(f"probe discrete {probe.discrete} != {truth['discrete']}")
    elif probe.discrete and not math.isclose(probe.generator, truth["t0"], rel_tol=1e-6):
        bad.append(f"probe generator {probe.generator!r} != {truth['t0']!r}")
    return bad
