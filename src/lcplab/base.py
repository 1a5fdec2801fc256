"""Integer kernels and scalar readers that need only the standard library.

What belongs here is what both the integer lattice commands and the
algebra modules use and what runs without numpy: the primitive part of
an integer vector, the determinant and the characteristic polynomial of
an integer matrix given as lists of Python ints, the readers that turn
one input value into a ``Fraction`` or a finite float, and the canonical
JSON form of a report. ``linalg``, ``scalars`` and ``fileio`` re-export
these names, and ``lattice`` answers ``charpoly``, ``irreducible`` and
``probe`` with them alone, so those commands start without numpy.

The readers recognise numpy scalars and arrays without importing numpy
(:func:`is_numpy`): a numpy object can exist only once numpy has been
imported, so they look it up in ``sys.modules`` and test against it only
when it is there.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Any

from .errors import InputError


def is_numpy(x: Any, kind: str) -> bool:
    """Whether x is an instance of the numpy type ``kind`` ("ndarray",
    "bool_", "floating", ...); False while numpy is not loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, getattr(np, kind))


def is_bool(x: Any) -> bool:
    """Whether x is a bool or a numpy bool_."""
    return isinstance(x, bool) or is_numpy(x, "bool_")


def as_fraction(value: Any) -> Fraction:
    """Coerce to Fraction, rejecting binary floats (lossy in exact mode)."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse exact scalar {value!r}: {exc}") from None
    if isinstance(value, (bool, float)) or is_numpy(value, "floating"):
        raise InputError(f"float scalar {value!r} not allowed in exact mode")
    if isinstance(value, int) or is_numpy(value, "integer"):
        return Fraction(int(value))
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    raise InputError(f"not an exact scalar: {value!r}")


def finite_float(x: Any, where: str) -> float:
    """x as a float; InputError unless it is a finite number, not a string or bool."""
    v = x
    if type(x) is not float:  # a plain float, the common case, needs no test
        try:
            v = math.nan if isinstance(x, str) or is_bool(x) else float(x)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
            v = math.nan
    if not math.isfinite(v):
        raise InputError(f"{where} = {x!r} is not a finite number")
    return v


def canonical_json(obj: Any) -> str:
    """One stable byte representation per report: sorted keys, two-space
    indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# integer kernels on lists of Python ints


def _primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return v if g <= 1 else [x // g for x in v]


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination.

    Every division inside the elimination is exact (Bareiss 1968). The
    rows are not changed.
    """
    rows = list(rows)
    n = len(rows)
    sign, prev = 1, 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pc = rows[c]
        for i in range(c + 1, n):
            ri = rows[i]
            rows[i] = [0] * (c + 1) + [(ri[j] * pc[c] - ri[c] * pc[j]) // prev
                                       for j in range(c + 1, n)]
        prev = pc[c]
    return sign * prev


def int_charpoly(rows: list[list[int]]) -> list[int]:
    """det(X I - a) of a square integer matrix, constant term first.

    Berkowitz's division-free algorithm (Berkowitz, IPL 18, 1984): the
    polynomial of the leading (r + 1) x (r + 1) block is T times that of
    the leading r x r block A_r, where T is the lower triangular Toeplitz
    matrix with first column 1, -a_rr, -S R, -S A_r R, ..., -S A_r^(r-1) R
    for the row S = a[r][:r] and the column R = a[:r][r]. Integer
    additions and products only, O(n^4) of them.
    """
    poly = [1]  # of the leading r x r block, highest degree first
    for r, row in enumerate(rows):
        block = [rows[i][:r] for i in range(r)]
        s = row[:r]
        t = [1, -row[r]]
        v = [rows[i][r] for i in range(r)]  # A_r^k R
        for k in range(r):
            if k:
                v = [sum(map(mul, b, v)) for b in block]
            t.append(-sum(map(mul, s, v)))
        poly = [sum(map(mul, t[i::-1], poly)) for i in range(r + 2)]  # T poly
    return poly[::-1]
