"""Command-line front end.

Four subcommands: ``validate`` runs the structure checks on a stored
algebra file, ``analyze`` produces the full report, ``examples`` lists or
exports the built-in worked examples, and ``lattice`` exposes the
integer-matrix helpers. Exit codes: 0 all checks pass, 1 a domain check
failed, 2 the input could not be read or parsed, 3 a float-mode decision
was too close to call.

Each command imports only the modules it uses, inside the function that
runs it: ``lattice charpoly``, ``irreducible`` and ``probe`` run on the
standard library alone, and only ``validate``, ``analyze`` and
``examples`` load the algebra modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Optional

from . import __version__
from .base import canonical_json
from .errors import InputError, NumericalAmbiguityError, TheoremViolationError
from .lattice import (char_poly, discreteness_probe, is_irreducible_over_Z,
                      solve_conjugacy, unit_root_profile, verify_conjugacy)

if TYPE_CHECKING:
    from .lcp import LcpData
    from .liealg import MetricLieAlgebra
    from .scalars import TolerancePolicy

EXIT_PASS = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_AMBIGUOUS = 3

# Acceptance threshold for the conjugacy reconstruction defect.
CONJUGACY_DEFECT_TOL = 1e-8


# The stages run_analysis calls and their home modules. A stage is
# imported on first use and then kept as a module attribute, which is where
# run_analysis looks it up, so a caller can swap in a wrapper there
# (bench/spans.py times the stages that way).
_STAGES = {
    "validate_algebra": "liealg", "is_unimodular": "liealg",
    "de_rham_splitting": "holonomy", "verify_factor_subalgebras": "holonomy",
    "reducibility_witness": "holonomy",
    "validate_lcp": "lcp", "lcp_decomposable": "lcp",
}


def __getattr__(name: str):
    home = _STAGES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
    return value


def resolve_tolerance(tol_arg: Optional[float]) -> TolerancePolicy:
    """--tol beats the LCPLAB_TOL environment variable beats the default."""
    from .scalars import DEFAULT_TOL, TolerancePolicy

    raw = tol_arg
    if raw is None:
        env = os.environ.get("LCPLAB_TOL")
        if env is not None:
            try:
                raw = float(env)
            except ValueError:
                raise InputError(f"LCPLAB_TOL is not a number: {env!r}") from None
    if raw is None:
        return DEFAULT_TOL
    raw = _positive_tol(raw)
    return TolerancePolicy(rank_tol=raw, eigen_cluster_tol=100.0 * raw)


def _positive_tol(raw: float) -> float:
    # written so that NaN fails too
    if not 0 < raw < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {raw}")
    return raw


def _tool_versions() -> dict:
    import platform

    import numpy as np
    import scipy  # only analyze reports pay its import

    return {
        "lcplab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def run_analysis(g: MetricLieAlgebra, data: Optional[LcpData] = None,
                 seed: int = 0) -> tuple[dict, int]:
    """Assemble the full report for one algebra; returns (report, exit code).

    A failed algebra validation stops the run before any geometry, a
    failed structure validation skips only the decomposability block.
    The report layout is stable so that identical input, seed, and
    tolerance give byte-identical serialized output.
    """
    stage = sys.modules[__name__]  # the stages, as this module's attributes
    report: dict = {
        "dim": g.dim,
        "mode": g.mode,
        "random_seed": seed,
        "tolerance_policy": {"rank_tol": g.tol.rank_tol,
                             "eigen_cluster_tol": g.tol.eigen_cluster_tol},
        "tool_versions": _tool_versions(),
        "unimodular": None,
        "holonomy_dim": None,
        "de_rham": None,
        "reducing_witness": None,
        "lcp_report": None,
        "decomposability": None,
    }
    val = stage.validate_algebra(g)
    report["validation"] = {"passed": val.passed, "failures": val.failures()}
    if not val.passed:
        return report, EXIT_DOMAIN

    report["unimodular"] = stage.is_unimodular(g)
    spl = stage.de_rham_splitting(g, seed=seed)
    flat_index = spl.factor_is_flat.index(True) if True in spl.factor_is_flat else None
    report["holonomy_dim"] = spl.holonomy_dim
    report["de_rham"] = {
        "factor_dims": list(spl.factor_dims),
        "factor_is_flat": list(spl.factor_is_flat),
        "flat_factor_index": flat_index,
        "factors_are_subalgebras": stage.verify_factor_subalgebras(g, spl, strict=False),
        "promoted_to_float": spl.promoted_to_float,
    }
    witness = stage.reducibility_witness(g, seed=seed, splitting=spl)
    report["reducing_witness"] = (None if witness is None else
                                  {"s1_dim": witness.s1.dim, "s2_dim": witness.s2.dim})

    code = EXIT_PASS
    if data is not None:
        lrep = stage.validate_lcp(g, data)
        report["lcp_report"] = lrep.as_dict()
        if lrep.overall:
            dec = stage.lcp_decomposable(g, data, seed=seed,
                                         splitting=spl, lcp_report=lrep)
            principal = dec.principal_factor
            report["decomposability"] = {
                "decomposable": dec.decomposable,
                "touched_factors": list(dec.touched_factors),
                "principal_factor_dim": None if principal is None else principal.dim,
                "q": dec.q,
                "dim_bound_satisfied": dec.dim_bound_satisfied,
                "witness": (None if dec.witness is None else
                            {"s1_dim": dec.witness.s1.dim,
                             "s2_dim": dec.witness.s2.dim}),
            }
        else:
            code = EXIT_DOMAIN
    return report, code


def _print_checks(checks: dict) -> None:
    """One 'name: ok|FAIL|skipped' line per structure check."""
    for name, value in checks.items():
        if name == "overall":
            continue
        word = "skipped" if value is None else ("ok" if value else "FAIL")
        print(f"  {name}: {word}")


def _print_report(report: dict) -> None:
    print(f"dim {report['dim']}, mode {report['mode']}")
    val = report["validation"]
    print(f"validation: {'ok' if val['passed'] else 'FAIL'}")
    for line in val["failures"]:
        print(f"  {line}")
    if not val["passed"]:
        return
    print(f"unimodular: {'yes' if report['unimodular'] else 'no'}")
    dr = report["de_rham"]
    print(f"holonomy dimension: {report['holonomy_dim']}")
    dims = ", ".join(str(d) for d in dr["factor_dims"])
    flat = dr["flat_factor_index"]
    print(f"metric factors: ({dims}), flat factor: "
          f"{'none' if flat is None else f'index {flat}'}")
    if dr["promoted_to_float"]:
        print("note: an irrational eigenvalue forced a float recomputation")
    if not all(dr["factors_are_subalgebras"]):
        print("WARNING: a metric factor is not a subalgebra")
    w = report["reducing_witness"]
    print("reducing pair: none" if w is None else
          f"reducing pair: dims {w['s1_dim']} + {w['s2_dim']}")
    lrep = report["lcp_report"]
    if lrep is None:
        return
    print(f"structure checks: {'ok' if lrep['overall'] else 'FAIL'}")
    _print_checks(lrep)
    dec = report["decomposability"]
    if dec is None:
        return
    print(f"decomposable: {'yes' if dec['decomposable'] else 'no'}")
    if dec["principal_factor_dim"] is not None:
        print(f"principal factor: dim {dec['principal_factor_dim']}, "
              f"q = {dec['q']}, bound "
              f"{'satisfied' if dec['dim_bound_satisfied'] else 'VIOLATED'}")


def cmd_validate(args: argparse.Namespace) -> int:
    from .fileio import load_algebra_file
    from .lcp import validate_lcp
    from .liealg import validate_algebra

    g, lcp, _ = load_algebra_file(args.file, tol=resolve_tolerance(None))
    val = validate_algebra(g)
    if not val.passed:
        print(f"algebra: FAIL (dim {g.dim}, mode {g.mode})")
        for line in val.failures():
            print(f"  {line}")
        return EXIT_DOMAIN
    print(f"algebra: ok (dim {g.dim}, mode {g.mode})")
    if lcp is None:
        print("structure data: none")
        return EXIT_PASS
    rep = validate_lcp(g, lcp)
    _print_checks(rep.as_dict())
    print(f"structure data: {'ok' if rep.overall else 'FAIL'}")
    return EXIT_PASS if rep.overall else EXIT_DOMAIN


def cmd_analyze(args: argparse.Namespace) -> int:
    from .fileio import load_algebra_file

    tol = resolve_tolerance(args.tol)
    g, lcp, _ = load_algebra_file(args.file, tol=tol)
    report, code = run_analysis(g, lcp, seed=args.seed)
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        _print_report(report)
    return code


def cmd_examples(args: argparse.Namespace) -> int:
    from .fileio import save_algebra_file
    from .gallery import all_entries

    entries = all_entries()
    if args.list:
        for e in entries:
            print(f"{e.name}: dim {e.algebra.dim}, mode {e.algebra.mode}; "
                  f"{e.description}")
            if e.note is not None:
                print(f"  note: {e.note}")
        return EXIT_PASS
    os.makedirs(args.export, exist_ok=True)
    for e in entries:
        path = os.path.join(args.export, f"{e.name}.json")
        save_algebra_file(path, e.algebra, lcp=e.lcp, lattice=e.lattice)
        print(path)
    return EXIT_PASS


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def _matrix_arg(text: str) -> list:
    obj = _json_arg(text, "matrix")
    if (not isinstance(obj, list) or not obj
            or not all(isinstance(row, list) for row in obj)
            or any(len(row) != len(obj[0]) for row in obj)):
        raise InputError("matrix must be a JSON list of equal-length rows")
    return obj


def _vector_arg(text: str, what: str) -> list:
    obj = _json_arg(text, what)
    if not isinstance(obj, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj):
        raise InputError(f"{what} must be a JSON list of numbers")
    return obj


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        for line in human:
            print(line)


def cmd_lattice_charpoly(args: argparse.Namespace) -> int:
    coeffs = char_poly(_matrix_arg(args.matrix))
    display = " ".join(str(c) for c in coeffs)
    _emit(args, {"char_poly": list(coeffs), "display": display}, [display])
    return EXIT_PASS


def cmd_lattice_irreducible(args: argparse.Namespace) -> int:
    coeffs = _vector_arg(args.coeffs, "coefficients")
    verdict = is_irreducible_over_Z(coeffs)
    _emit(args, {"coeffs": coeffs, "irreducible": verdict},
          ["irreducible" if verdict else "reducible"])
    return EXIT_PASS


def cmd_lattice_roots(args: argparse.Namespace) -> int:
    coeffs = _vector_arg(args.coeffs, "coefficients")
    profile = unit_root_profile(coeffs, tol=_positive_tol(args.tol))
    payload = {
        "degree": profile.degree,
        "on_circle": profile.on_circle,
        "real_off_circle": profile.real_off_circle,
        "complex_off_circle": profile.complex_off_circle,
    }
    _emit(args, payload, [
        f"degree {profile.degree}",
        f"on unit circle: {profile.on_circle}",
        f"real off circle: {profile.real_off_circle}",
        f"complex off circle: {profile.complex_off_circle}",
    ])
    return EXIT_PASS


def cmd_lattice_conjugacy(args: argparse.Namespace) -> int:
    matrix = _matrix_arg(args.matrix)
    solution = solve_conjugacy(matrix, tol=_positive_tol(args.tol))
    if solution is None:
        _emit(args, {"solved": False, "reason": "matrix is not diagonalizable"},
              ["no solution: matrix is not diagonalizable"])
        return EXIT_DOMAIN
    defect = verify_conjugacy(matrix, solution)
    payload = {
        "solved": True,
        "t0": solution.t0,
        "defect": defect,
        "generator": [[float(x) for x in row] for row in solution.generator],
    }
    human = [f"t0 = {solution.t0!r}", f"reconstruction defect = {defect:.3e}"]
    if defect > CONJUGACY_DEFECT_TOL:
        human.append(f"FAIL: defect exceeds {CONJUGACY_DEFECT_TOL}")
        _emit(args, payload, human)
        return EXIT_DOMAIN
    _emit(args, payload, human)
    return EXIT_PASS


def cmd_lattice_probe(args: argparse.Namespace) -> int:
    values = _vector_arg(args.values, "values")
    result = discreteness_probe(values, tol=_positive_tol(args.tol))
    payload = {
        "discrete": result.discrete,
        "accumulation_detected": not result.discrete,
        "rank": result.rank,
        "generator": result.generator,
    }
    human = [f"discrete: {'yes' if result.discrete else 'no'}",
             f"accumulation detected: {'yes' if not result.discrete else 'no'}",
             f"rank: {'none' if result.rank is None else result.rank}"]
    if result.generator is not None:
        human.append(f"generator: {result.generator!r}")
    _emit(args, payload, human)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcplab",
        description="metric Lie algebra reducibility and locally conformally "
                    "parallel structure checks")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate",
                       help="run the structure checks on a stored algebra file")
    v.add_argument("file", help="algebra description in JSON")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("analyze", help="full metric and structure report")
    a.add_argument("file", help="algebra description in JSON")
    a.add_argument("--tol", type=float, default=None,
                   help="float-mode rank tolerance (default from LCPLAB_TOL "
                        "or the builtin policy)")
    a.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized probing vectors")
    a.add_argument("--json", action="store_true",
                   help="emit the report as canonical JSON")
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("examples", help="built-in worked examples")
    group = e.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true",
                       help="print one line per example")
    group.add_argument("--export", metavar="DIR",
                       help="write every example as an algebra file into DIR")
    e.set_defaults(func=cmd_examples)

    lat = sub.add_parser("lattice", help="integer-matrix helpers")
    lsub = lat.add_subparsers(dest="subcommand", required=True)

    cp = lsub.add_parser("charpoly",
                         help="characteristic polynomial, constant term first")
    cp.add_argument("matrix", help="JSON integer matrix, e.g. [[1,1],[1,2]]")
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=cmd_lattice_charpoly)

    ir = lsub.add_parser("irreducible",
                         help="irreducibility over the integers (degree <= 8)")
    ir.add_argument("coeffs", help="JSON integer coefficients, constant first")
    ir.add_argument("--json", action="store_true")
    ir.set_defaults(func=cmd_lattice_irreducible)

    ro = lsub.add_parser("roots", help="root profile relative to the unit circle")
    ro.add_argument("coeffs", help="JSON integer coefficients, constant first")
    ro.add_argument("--tol", type=float, default=1e-9)
    ro.add_argument("--json", action="store_true")
    ro.set_defaults(func=cmd_lattice_roots)

    co = lsub.add_parser("conjugacy",
                         help="embed an integer matrix into a one-parameter group")
    co.add_argument("matrix", help="JSON integer matrix")
    co.add_argument("--tol", type=float, default=1e-9)
    co.add_argument("--json", action="store_true")
    co.set_defaults(func=cmd_lattice_conjugacy)

    pr = lsub.add_parser("probe",
                         help="discreteness probe for a set of real numbers")
    pr.add_argument("values", help="JSON list of real numbers")
    pr.add_argument("--tol", type=float, default=1e-6)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_lattice_probe)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalAmbiguityError as exc:
        print(f"numerical ambiguity: {exc}", file=sys.stderr)
        if exc.suggestion is not None:
            print(f"suggestion: {exc.suggestion}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except TheoremViolationError as exc:
        print(f"structure violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
