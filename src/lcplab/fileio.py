"""JSON descriptions of metric Lie algebras and attached structure data.

One self-describing format covers the algebra, the optional degenerate
line field and Lee covector, and the optional integer lattice block.
Exact scalars travel as "p/q" strings so a file round-trips without any
float contamination; float files use plain JSON numbers.
"""
from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .base import canonical_json
from .errors import InputError
from .lattice import LatticeData
from .lcp import LcpData, make_lcp_data
from .liealg import MetricLieAlgebra, bracket_table, make_algebra
from .scalars import (DEFAULT_TOL, Mode, TolerancePolicy, check_mode,
                      finite_float, format_scalar, parse_scalar)

__all__ = ["algebra_to_dict", "dict_to_algebra", "load_algebra_file",
           "save_algebra_file", "canonical_json"]


def _format_rows(rows: np.ndarray, mode: Mode) -> list[list]:
    return [[format_scalar(x, mode) for x in row] for row in rows]


def algebra_to_dict(g: MetricLieAlgebra, lcp: Optional[LcpData] = None,
                    lattice: Optional[LatticeData] = None) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coeffs = {}
            for k in range(g.dim):
                v = g.bracket[i, j, k]
                if v != 0:
                    coeffs[str(k)] = format_scalar(v, g.mode)
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    out: dict = {
        "dim": g.dim,
        "mode": g.mode,
        "basis": list(g.basis_names),
        "brackets": brackets,
        "metric": _format_rows(g.gram, g.mode),
    }
    if lcp is not None:
        block = {
            "flat_ideal": _format_rows(lcp.flat_ideal.basis, g.mode),
            "lee_form": [format_scalar(x, g.mode) for x in lcp.lee_covector],
        }
        if lcp.complement is not None:
            block["complement"] = _format_rows(lcp.complement.basis, g.mode)
        out["lcp"] = block
    if lattice is not None:
        block = {"integer_matrix":
                 [[int(x) for x in row] for row in lattice.integer_matrix]}
        if lattice.t0 is not None:
            block["t0"] = float(lattice.t0)
        if lattice.translation_parts is not None:
            block["translation_parts"] = [float(x)
                                          for x in lattice.translation_parts]
        out["lattice"] = block
    return out


def _is_int(x: Any) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rows(raw: Any, mode: Mode, what: str) -> list[list]:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise InputError(f"{what} must be a non-empty list of rows")
    try:
        return [[parse_scalar(x, mode) for x in row] for row in raw]
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def dict_to_algebra(data: dict, tol: TolerancePolicy = DEFAULT_TOL,
                    ) -> tuple[MetricLieAlgebra, Optional[LcpData],
                               Optional[LatticeData]]:
    """Parse without running the domain checks, so that a syntactically
    fine file with broken algebra still loads and can be reported on."""
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    for key in ("dim", "mode", "brackets", "metric"):
        if key not in data:
            raise InputError(f"missing required key {key!r}")
    mode = check_mode(data["mode"])
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise InputError("dim must be a positive integer")
    names = None
    if "basis" in data:
        names = data["basis"]
        if (not isinstance(names, list) or len(names) != dim
                or not all(isinstance(s, str) for s in names)):
            raise InputError("basis must list one name per dimension")
        names = tuple(names)
    entries: dict = {}
    raw_brackets = data["brackets"]
    if not isinstance(raw_brackets, list):
        raise InputError("brackets must be a list of {i, j, coeffs} records")
    for pos, rec in enumerate(raw_brackets):
        where = f"brackets[{pos}]"
        if not isinstance(rec, dict) or not {"i", "j", "coeffs"} <= set(rec):
            raise InputError(f"{where}: expected keys i, j, coeffs")
        i, j = rec["i"], rec["j"]
        if not (_is_int(i) and _is_int(j)
                and 0 <= i < dim and 0 <= j < dim and i != j):
            raise InputError(f"{where}: indices ({i}, {j}) out of range for "
                             f"dim {dim} or equal")
        coeffs = {}
        if not isinstance(rec["coeffs"], dict):
            raise InputError(f"{where}: coeffs must be an object")
        for ks, v in rec["coeffs"].items():
            try:
                k = int(ks)
            except ValueError:
                raise InputError(f"{where}: coefficient key {ks!r} is not an "
                                 "integer") from None
            if not 0 <= k < dim:
                raise InputError(f"{where}: coefficient index {k} out of range")
            try:
                coeffs[k] = parse_scalar(v, mode)
            except InputError as exc:
                raise InputError(f"{where}.coeffs[{ks!r}]: {exc}") from None
        if (i, j) in entries or (j, i) in entries:
            raise InputError(f"{where}: duplicate bracket pair ({i}, {j})")
        entries[(i, j)] = coeffs
    bracket = bracket_table(dim, entries, mode)
    metric = _parse_rows(data["metric"], mode, "metric")
    if len(metric) != dim or any(len(r) != dim for r in metric):
        raise InputError(f"metric must be a {dim} x {dim} matrix")
    g = make_algebra(bracket, gram=metric, mode=mode, basis_names=names,
                     tol=tol, check=False)
    lcp = None
    if "lcp" in data:
        block = data["lcp"]
        if not isinstance(block, dict) or not {"flat_ideal", "lee_form"} <= set(block):
            raise InputError("lcp block needs flat_ideal and lee_form")
        ideal = _parse_rows(block["flat_ideal"], mode, "lcp.flat_ideal")
        if not isinstance(block["lee_form"], list):
            raise InputError("lcp.lee_form must be a list")
        try:
            theta = [parse_scalar(x, mode) for x in block["lee_form"]]
        except InputError as exc:
            raise InputError(f"lcp.lee_form: {exc}") from None
        comp = None
        if block.get("complement") is not None:
            comp = _parse_rows(block["complement"], mode, "lcp.complement")
        lcp = make_lcp_data(g, ideal, theta, comp)
    lattice = None
    if "lattice" in data:
        block = data["lattice"]
        if not isinstance(block, dict) or "integer_matrix" not in block:
            raise InputError("lattice block needs integer_matrix")
        raw_m = block["integer_matrix"]
        if (not isinstance(raw_m, list)
                or not all(isinstance(r, list) for r in raw_m)
                or any(not all(_is_int(x) for x in r) for r in raw_m)):
            raise InputError("lattice.integer_matrix must be integer rows")
        mat = np.array(raw_m, dtype=object)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError("lattice.integer_matrix must be square")
        parts = None
        if block.get("translation_parts") is not None:
            raw_p = block["translation_parts"]
            if not isinstance(raw_p, list):
                raise InputError("lattice.translation_parts must be a list")
            parts = tuple(finite_float(x, f"lattice.translation_parts[{k}]")
                          for k, x in enumerate(raw_p))
        t0 = block.get("t0")
        lattice = LatticeData(integer_matrix=mat,
                              t0=None if t0 is None else finite_float(t0, "lattice.t0"),
                              translation_parts=parts)
    return g, lcp, lattice


def save_algebra_file(path: str, g: MetricLieAlgebra,
                      lcp: Optional[LcpData] = None,
                      lattice: Optional[LatticeData] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(algebra_to_dict(g, lcp=lcp, lattice=lattice)))


def load_algebra_file(path: str, tol: TolerancePolicy = DEFAULT_TOL,
                      ) -> tuple[MetricLieAlgebra, Optional[LcpData],
                                 Optional[LatticeData]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    return dict_to_algebra(data, tol=tol)
