"""Scalar domains shared by every module.

Two backends: exact rationals and binary64 floats (float64 arrays). A
single computation never mixes the two; promotion exact -> float is
explicit and one-way.

Exact data are kept on a scaled-integer form: an object array of Python
ints plus one common denominator (:func:`to_scaled` and
:func:`from_scaled`). Input is parsed straight to that form
(:func:`scaled_array`), and each later span, invariance or zero test
takes those ints: a positive scale changes none of them, and integer
products skip the gcd normalisation that dominates ``Fraction``
arithmetic. So exact answers pass between stages on that form, and
rational values are built only where a caller reads them: an algebra
keeps its scaled bracket and Gram matrix, a connection its scaled
coefficient tensor, nullspaces (and so every computed subspace) are
primitive integer rows, solves are ints over one denominator, and the
holonomy basis and the symmetric commutant are Python ints, each element
a positive multiple of the rational one.

A float64 array is its own scaled form over denominator 1, and so is an
object array of Python ints: an algorithm written once on the scaled
form runs in either mode. These two helpers, and ``linalg.scale_of``,
read the mode from the array's dtype; object and integer arrays take
the exact path.

Integer expressions on that form run in float64 when that is exact, by
one decision, :func:`exact_floats`. A site that evaluates an expression
(a product, a whole tensor identity, a curvature) states, once and next
to the expression, a bound on the magnitude of every entry, term and
partial sum it forms, from the maxima of its operands, the number of
terms per entry and its scalar factors. When every operand is an object
array of Python ints and that bound is below 2**53, every one of those
values is an integer that float64 holds exactly, in any summation order
and with or without fused multiply-adds: the answer is exact by the
bound, not by a test. So the site lifts its operands to float64 once,
runs the same numpy expression on the copies, and converts the answer to
Python ints once at the end (:func:`back_to_ints`), or never when only
a zero test reads it. The bound is checked on the Python ints before any
cast. Above it, on any entry that is not a Python int, and for
expressions too small for the conversion to pay off, the expression runs
on the object arrays themselves. Float64 arrays are never lifted, so
float results are the same bits either way, and no lifted copy leaves
the function that made it.

The product kernel, :func:`int_matmul`, with :func:`int_commutator` and
:func:`int_tensordot` beside it, is that decision for one product: with
every entry of a at most A and of b at most B in magnitude, each entry of
the product sums ``inner`` terms of magnitude at most A * B, so its bound
is A * B * inner. Inside a lifted expression they receive float64
arrays and are plain ``@`` and ``np.tensordot``; on the object route
each product still takes the float64 path when its own bound allows.

The readers of a single value, :func:`as_fraction` and
:func:`finite_float`, live in :mod:`lcplab.base`, which needs no numpy;
:mod:`lcplab.fileio` reads and writes the scalars of a file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal, Optional, Sequence

import numpy as np

from .base import as_fraction
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


# An expression on object ints goes through float64 only when that saves
# time: converting the operands to float64 and the answer back costs a
# fixed 10 to 20 us per call and about 4 object multiply-adds per entry
# converted. So it takes at least KERNEL_MIN_WORK multiply-adds, and at
# least KERNEL_WORK_PER_ENTRY per entry of the operands and the answer.
# Measured on products with entries below 2**8 on numpy 2.4 and OpenBLAS:
# the crossover of square products lies at 1,000 to 1,700 multiply-adds
# (n = 10 to 12), of stacks of 5 x 5 matrices near 3,500, and a
# (29**3, 29) by (29, 1) product, one multiply-add per entry, took 0.11 s
# in float64 against 0.04 s on object ints.
KERNEL_MIN_WORK = 2**12
KERNEL_WORK_PER_ENTRY = 4
# float64 holds every integer of magnitude below 2**53 exactly
_FLOAT_EXACT = 2**53


def exact_floats(arrays: Sequence[np.ndarray], bound: Callable[..., int], work: int,
                 out: int = 0) -> Optional[list[np.ndarray]]:
    """Float64 copies of the object arrays ``arrays`` when an integer
    expression on them is worth computing in float64 and exact there; else
    None, and the expression runs on the arrays themselves.

    ``bound`` takes max(1, max|x|) of each array, in order, and returns a
    bound on the magnitude of every entry, term and partial sum the
    expression forms; the caller states it next to the expression. The
    copies are made only when it is below 2**53, checked on the Python ints
    before any cast: then every one of those values is an integer that
    float64 holds exactly, in any summation order and with or without fused
    multiply-adds. ``work`` is the expression's multiply-adds and ``out``
    the entries of the answer converted back to ints, 0 when only a zero
    test reads it. Only object arrays of Python ints qualify; an array of
    any other dtype gives None.
    """
    if any(a.dtype != object for a in arrays):
        return None
    converted = sum(a.size for a in arrays) + out
    if work < KERNEL_MIN_WORK or work < KERNEL_WORK_PER_ENTRY * converted:
        return None
    if not all(_python_ints(a.reshape(-1).tolist()) for a in arrays):
        return None  # the object route, which keeps every entry's type
    if bound(*(np.abs(a).max(initial=1) for a in arrays)) >= _FLOAT_EXACT:
        return None
    return [a.astype(np.float64) for a in arrays]


def _product_floats(a: np.ndarray, b: np.ndarray, inner: int,
                    products: int = 1) -> Optional[list[np.ndarray]]:
    """:func:`exact_floats` for a sum of ``products`` products of a and b,
    each with ``inner`` terms per entry: with A = max(1, max|a|) and
    B = max(1, max|b|), every term is at most A * B and every partial sum
    at most A * B * inner * products. A product takes a.size * b.size /
    inner multiply-adds, fewer only when both operands are stacks that
    broadcast."""
    if inner == 0:
        return None  # an empty sum: the object product gives its zeros
    size = a.size * b.size // inner  # the multiply-adds of one product
    return exact_floats((a, b), lambda ta, tb: ta * tb * inner * products,
                        products * size, size // inner)


def back_to_ints(r: Any) -> Any:
    """A float64 answer known to hold integers below 2**53, as Python ints."""
    out = np.asarray(r).astype(np.int64).astype(object)
    return out if out.ndim else out[()]


def int_matmul(a: np.ndarray, b: np.ndarray) -> Any:
    """``a @ b``, computed in float64 when that is exact.

    For object arrays of Python ints whose product is exact in float64
    (see :func:`_product_floats`), the product runs through BLAS and comes
    back as an object array of Python ints equal to the object product.
    Everything else, float64 arrays included, is ``a @ b`` itself.
    """
    if a.dtype != object or b.dtype != object:
        return a @ b
    floats = _product_floats(a, b, a.shape[-1])
    return a @ b if floats is None else back_to_ints(floats[0] @ floats[1])


def int_commutator(a: np.ndarray, b: np.ndarray) -> Any:
    """``a @ b - b @ a``, computed in float64 when that is exact, as
    :func:`int_matmul` does, with each operand and the answer converted once."""
    if a.dtype != object or b.dtype != object:
        return a @ b - b @ a
    floats = _product_floats(a, b, a.shape[-1], 2)
    if floats is None:
        return a @ b - b @ a
    fa, fb = floats
    return back_to_ints(fa @ fb - fb @ fa)


def int_tensordot(a: np.ndarray, b: np.ndarray, axes: Any = 2) -> Any:
    """``np.tensordot(a, b, axes)``, computed in float64 when that is exact,
    as :func:`int_matmul` does."""
    if a.dtype != object or b.dtype != object:
        return np.tensordot(a, b, axes)
    if isinstance(axes, int):
        summed = range(a.ndim - axes, a.ndim)
    else:
        summed = [axes[0]] if isinstance(axes[0], int) else axes[0]
    floats = _product_floats(a, b, math.prod(a.shape[i] for i in summed))
    if floats is None:
        return np.tensordot(a, b, axes)
    return back_to_ints(np.tensordot(*floats, axes))


def lowest_terms(ints: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """``(ints, den)`` with the common factor of every entry and ``den``
    divided out, which is the least common denominator form of ``ints / den``.
    A float64 array is divided by ``den`` and comes back over 1."""
    if ints.dtype == _FLOAT64:
        return ints / den, 1
    g = math.gcd(den, *ints.reshape(-1).tolist())
    return ints // g, den // g


def diagonal_blocks(a: tuple[np.ndarray, int],
                    b: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """Two scaled arrays of one rank as the diagonal blocks of one, zero
    elsewhere, over one denominator: in lowest terms when both are."""
    (x, dx), (y, dy) = a, b
    den = math.lcm(dx, dy)
    out = np.zeros(tuple(np.add(x.shape, y.shape)), dtype=x.dtype)
    out[tuple(slice(k) for k in x.shape)] = x * (den // dx)
    out[tuple(slice(k, None) for k in x.shape)] = y * (den // dy)
    return out, den


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


def scaled_array(data: Any, mode: Mode) -> tuple[np.ndarray, int]:
    """Parse data in the declared mode straight to the scaled form of
    :func:`to_scaled`; an int entry is read as it is, no rational built."""
    return to_scaled(np.array(data, dtype=object) if mode == EXACT else float_array(data))


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
