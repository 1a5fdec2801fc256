"""Scalar domains shared by every module.

Two backends: exact rationals and binary64 floats (float64 arrays). A
single computation never mixes the two; promotion exact -> float is
explicit and one-way.

Exact input arrays are numpy object arrays of ``fractions.Fraction``;
the work runs on a scaled-integer form of the same data, an object array
of Python ints plus one common denominator (:func:`to_scaled` and
:func:`from_scaled`). An exact array becomes ints once, where it is
made, and each later span, invariance or zero test takes those ints: a
positive scale changes none of them, and integer products skip the gcd
normalisation that dominates ``Fraction`` arithmetic. So exact answers
pass between stages on that form, and rational values are built only
where a caller reads them: a connection keeps its scaled coefficient
tensor, nullspaces (and so every computed subspace) are primitive
integer rows, solves are ints over one denominator, and the holonomy
basis and the symmetric commutant are Python ints, each element a
positive multiple of the rational one.

A float64 array is its own scaled form over denominator 1, and so is an
object array of Python ints: an algorithm written once on the scaled
form runs in either mode. These two helpers, and ``linalg.scale_of``,
read the mode from the array's dtype; object and integer arrays take
the exact path.

Products on that form go through one kernel, :func:`int_matmul`, with
:func:`int_commutator` and :func:`int_tensordot` beside it. On object
arrays of Python ints whose product bound is below 2**53, they compute in
float64 through BLAS and convert the answer back to Python ints. If every
entry of a is at most A in magnitude and every entry of b at most B, each
entry of the product sums ``inner`` terms of magnitude at most A * B, so
every term and every partial sum, in any order, is an integer of
magnitude at most A * B * inner. When that is below 2**53, float64 holds
each of them exactly, and the answer is exact by the bound, not by a
test. The bound is checked on the Python ints before any cast. Above it,
on any entry that is not a Python int, and on products too small for
the conversion to pay off, the object product runs. Float64 arrays go
straight to ``@`` and ``np.tensordot``, so float results are the same
bits either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Literal, Optional

import numpy as np

from .errors import InputError

Mode = Literal["exact", "float"]

EXACT: Mode = "exact"
FLOAT: Mode = "float"

_MODES = (EXACT, FLOAT)


@dataclass(frozen=True)
class TolerancePolicy:
    """Zero thresholds for float-mode decisions; ignored in exact mode.

    rank_tol is relative to the largest singular value of the matrix at
    hand, eigen_cluster_tol to the largest eigenvalue magnitude.
    """

    rank_tol: float = 1e-9
    eigen_cluster_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not self.rank_tol > 0.0:
            raise InputError("rank_tol must be strictly positive")
        if not self.eigen_cluster_tol > 0.0:
            raise InputError("eigen_cluster_tol must be strictly positive")


DEFAULT_TOL = TolerancePolicy()


def check_mode(mode: str) -> Mode:
    if mode not in _MODES:
        raise InputError(f"unknown scalar mode {mode!r}; expected 'exact' or 'float'")
    return mode  # type: ignore[return-value]


def as_fraction(value: Any) -> Fraction:
    """Coerce to Fraction, rejecting binary floats (lossy in exact mode)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float, np.floating)):
        raise InputError(f"float scalar {value!r} not allowed in exact mode")
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse exact scalar {value!r}: {exc}") from None
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    raise InputError(f"not an exact scalar: {value!r}")


def finite_float(x: Any, where: str) -> float:
    """x as a float; InputError unless it is a finite number, not a string or bool."""
    try:
        v = math.nan if isinstance(x, (str, bool, np.bool_)) else float(x)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        v = math.nan
    if not math.isfinite(v):
        raise InputError(f"{where} = {x!r} is not a finite number")
    return v


def parse_scalar(value: Any, mode: Mode) -> Any:
    """Parse one scalar in the declared mode: a 'p/q' string or a number in
    exact mode, a finite number in float mode."""
    return as_fraction(value) if mode == EXACT else finite_float(value, "float scalar")


def format_scalar(value: Any, mode: Mode) -> Any:
    """Serialize one scalar: 'p/q' with q > 0 and gcd 1, or a float."""
    if mode == EXACT:
        f = as_fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


_TO_FRACTION = np.frompyfunc(as_fraction, 1, 1)
_FLOAT64 = np.dtype(np.float64)


def exact_array(data: Any) -> np.ndarray:
    """Build an object array of Fractions; floats are rejected."""
    arr = np.array(data, dtype=object)
    return _TO_FRACTION(arr)


def _python_ints(flat: list) -> bool:
    """True when every entry is a Python int: not a bool, a rational or a
    numpy integer."""
    return set(map(type, flat)) <= {int}


def to_scaled(*arrays: np.ndarray) -> tuple:
    """Exact arrays as object arrays of ints over one common denominator.

    Returns ``(ints_1, ..., ints_k, den)`` with ``arrays[i] == ints_i / den``.
    ``den`` is the least common denominator, so a single array comes back
    in lowest terms. Float64 arrays, and object arrays of Python ints, come
    back unchanged over ``den = 1``.
    """
    # the first test alone settles the common exact call cheaply
    if arrays[0].dtype == _FLOAT64 and all(a.dtype == _FLOAT64 for a in arrays[1:]):
        return (*arrays, 1)
    flats = [np.asarray(a, dtype=object).reshape(-1).tolist() for a in arrays]
    if all(a.dtype == object for a in arrays) and all(map(_python_ints, flats)):
        return (*arrays, 1)
    flats = [[x if type(x) is Fraction or type(x) is int else as_fraction(x) for x in flat]
             for flat in flats]
    den = math.lcm(*{x.denominator for flat in flats for x in flat})
    ints = [np.array([x.numerator * (den // x.denominator) for x in flat],
                     dtype=object).reshape(np.shape(a)) for flat, a in zip(flats, arrays)]
    return (*ints, den)


# A product of object ints goes through float64 only when that saves
# time: converting both operands to float64 and the answer back costs a
# fixed 10 to 20 us per call and about 4 object multiply-adds per entry
# converted. So it takes at least KERNEL_MIN_WORK multiply-adds, and at
# least KERNEL_WORK_PER_ENTRY per entry of the operands and the answer.
# Measured with entries below 2**8 on numpy 2.4 and OpenBLAS: the
# crossover of square products lies at 1,000 to 1,700 multiply-adds
# (n = 10 to 12), of stacks of 5 x 5 matrices near 3,500, and a (29**3, 29)
# by (29, 1) product, one multiply-add per entry, took 0.11 s in float64
# against 0.04 s on object ints.
KERNEL_MIN_WORK = 2**12
KERNEL_WORK_PER_ENTRY = 4
# float64 holds every integer of magnitude below 2**53 exactly
_FLOAT_EXACT = 2**53


def _exact_floats(a: np.ndarray, b: np.ndarray, inner: int,
                  products: int = 1) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Object arrays a and b as float64 when a sum of ``products`` products
    of a and b, each with ``inner`` terms per entry, is worth computing in
    float64 and exact there; else None.

    A product takes a.size * b.size / inner multiply-adds, fewer only when
    both operands are stacks that broadcast. Only Python ints qualify. The
    bound is checked on the Python ints before any cast: with
    A = max(1, max|a|) and B = max(1, max|b|),
    A * B * inner * products < 2**53 puts every entry of both operands,
    every term and every partial sum of every entry of the answer below
    2**53 in magnitude, so each is an integer that float64 holds exactly,
    in any summation order and with or without fused multiply-adds.
    """
    if inner == 0:
        return None  # an empty sum: the object product gives its zeros
    size = a.size * b.size // inner  # the multiply-adds of one product
    work = products * size
    converted = a.size + b.size + size // inner  # both operands and the answer
    if work < KERNEL_MIN_WORK or work < KERNEL_WORK_PER_ENTRY * converted:
        return None
    if not (_python_ints(a.reshape(-1).tolist()) and _python_ints(b.reshape(-1).tolist())):
        return None  # the object product, which keeps every entry's type
    ta, tb = (np.abs(x).max(initial=1) for x in (a, b))  # max(1, max|x|)
    if ta * tb * inner * products >= _FLOAT_EXACT:
        return None
    return a.astype(np.float64), b.astype(np.float64)


def _back_to_ints(r: Any) -> Any:
    """A float64 answer known to hold integers below 2**53, as Python ints."""
    out = np.asarray(r).astype(np.int64).astype(object)
    return out if out.ndim else out[()]


def int_matmul(a: np.ndarray, b: np.ndarray) -> Any:
    """``a @ b``, computed in float64 when that is exact.

    For object arrays of Python ints whose product is exact in float64
    (see :func:`_exact_floats`), the product runs through BLAS and comes
    back as an object array of Python ints equal to the object product.
    Everything else, float64 arrays included, is ``a @ b`` itself.
    """
    if a.dtype != object or b.dtype != object:
        return a @ b
    floats = _exact_floats(a, b, a.shape[-1])
    return a @ b if floats is None else _back_to_ints(floats[0] @ floats[1])


def int_commutator(a: np.ndarray, b: np.ndarray) -> Any:
    """``a @ b - b @ a``, computed in float64 when that is exact, as
    :func:`int_matmul` does, with each operand and the answer converted once."""
    if a.dtype != object or b.dtype != object:
        return a @ b - b @ a
    floats = _exact_floats(a, b, a.shape[-1], 2)
    if floats is None:
        return a @ b - b @ a
    fa, fb = floats
    return _back_to_ints(fa @ fb - fb @ fa)


def int_tensordot(a: np.ndarray, b: np.ndarray, axes: Any = 2) -> Any:
    """``np.tensordot(a, b, axes)``, computed in float64 when that is exact,
    as :func:`int_matmul` does."""
    if a.dtype != object or b.dtype != object:
        return np.tensordot(a, b, axes)
    if isinstance(axes, int):
        summed = range(a.ndim - axes, a.ndim)
    else:
        summed = [axes[0]] if isinstance(axes[0], int) else axes[0]
    floats = _exact_floats(a, b, math.prod(a.shape[i] for i in summed))
    if floats is None:
        return np.tensordot(a, b, axes)
    return _back_to_ints(np.tensordot(*floats, axes))


def lowest_terms(ints: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """``(ints, den)`` with the common factor of every entry and ``den``
    divided out, which is the least common denominator form of ``ints / den``.
    A float64 array is divided by ``den`` and comes back over 1."""
    if ints.dtype == _FLOAT64:
        return ints / den, 1
    g = math.gcd(den, *ints.reshape(-1).tolist())
    return ints // g, den // g


def from_scaled(ints: np.ndarray, den: int) -> np.ndarray:
    """The array ``ints / den``, undoing :func:`to_scaled`: Fractions, or
    floats for a float64 ``ints``."""
    if ints.dtype == _FLOAT64:
        return ints / den
    return np.array([Fraction(x, den) for x in ints.reshape(-1)],
                    dtype=object).reshape(ints.shape)


def float_array(data: Any) -> np.ndarray:
    return np.array(data, dtype=np.float64)


def array_for_mode(data: Any, mode: Mode) -> np.ndarray:
    return exact_array(data) if mode == EXACT else float_array(data)


def to_float_array(arr: np.ndarray) -> np.ndarray:
    """Explicit one-way promotion of an exact array to float64."""
    if arr.dtype == object:
        return np.array([float(x) for x in arr.reshape(-1)], dtype=np.float64).reshape(arr.shape)
    return np.asarray(arr, dtype=np.float64)


def zeros_array(shape: Any, mode: Mode) -> np.ndarray:
    if mode == EXACT:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape, dtype=np.float64)


def eye_array(n: int, mode: Mode) -> np.ndarray:
    return exact_array(np.eye(n, dtype=int)) if mode == EXACT else np.eye(n, dtype=np.float64)
