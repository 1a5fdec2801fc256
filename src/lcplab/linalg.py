"""Linear algebra over the two scalar backends.

Exact matrices come in as numpy object arrays of Fractions or Python
ints, and the work runs on ints. Answers that pass on to the next stage
stay on that form: a nullspace is primitive integer rows, a solve and an
inverse are ints over one denominator, a restricted operator stack is
ints, a positive multiple of the rational one, and a span closure takes
integer matrices and keeps them as they came.
Fractions go out only as values a caller reads: the RREF of a canonical
basis, determinants, characteristic polynomials and eigenvalues. One
fraction-free echelon store does every exact elimination: rank, RREF,
nullspace, solve, inverse and the span closure (a matrix is scaled to
integers once, its rows are added one at a time with integer row
operations, and a row is divided by its pivot only at the end). Float
computations run on float64 arrays, with every zero decision governed by
a :class:`TolerancePolicy`. Rank decisions in float mode use singular
values relative to the largest one, from a thin SVD unless the matrix is
wide; residual and identity checks use a 10 * rank_tol band relative to
the data scale, :func:`scale_of`, which is 1 on exact arrays: their zero
tests ignore the scale. A float span closure keeps its orthonormal basis
as one matrix and projects each candidate against all of it at once.
One closure loop, :func:`_closure`, runs by generations in three stores,
each of which takes a block of rows and returns those it kept: the exact
echelon store, the float one and a basis over GF(p), :class:`_ModpBasis`
(int64 residues, float64 products under one 2**53 bound,
:func:`matmul_mod`, and elimination in panels of rows with reduction
mod p delayed; Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 34,
2008). :func:`span_closure` closes under the :func:`closure_front` of its
operators, then the operators, when it has a cap, and under the
operators alone without one; :func:`closure_dim_mod_p` under its own.
:func:`is_invariant` is the one test of whether a whole stack of
operators preserves a subspace: in exact mode one zero test of the
span's annihilator times all the images, with no solve for their
coordinates. :func:`restrict_operator` runs the same test, then reads
the restricted matrices off the inverse of one m x m minor of the basis,
so no exact elimination is wider than twice the dimension.

Both modes split a self-adjoint operator from one float generalized
eigendecomposition. Exact mode rounds the exact Rayleigh quotient of
each float eigenvector to the grid its rational eigenvalues lie on and
confirms each candidate by an exact nullspace, in any dimension; when
the eigenspaces found do not fill the space it promotes to the float
split, so no float error can make an exact answer wrong.

Code that runs in both modes works on the scaled form of
:mod:`lcplab.scalars`, where a float array is its own scaled form over
denominator 1, so it is written once.

Integer products here (:func:`restricted_gram`, :func:`closure_front`)
go through the product kernel of :mod:`lcplab.scalars`, which computes
one product in float64 when its own 2**53 bound allows. Whole
expressions are lifted where they are written, each with its bound
stated beside it: the invariance test and the restricted matrices here,
the validation totals, the Levi-Civita tensor and the curvature in
:mod:`lcplab.liealg`, the flatness tests in :mod:`lcplab.lcp`, the
commutant loop and the reducing-pair test in :mod:`lcplab.holonomy`.
The exact zero test of :func:`is_zero_matrix` reads such a lifted
float64 array as it reads the ints: an entry is zero or it is not.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .base import _primitive, int_det
from .errors import InputError, NumericalAmbiguityError
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Mode,
    TolerancePolicy,
    back_to_ints,
    exact_floats,
    int_matmul,
    int_tensordot,
    to_float_array,
    to_scaled,
    zeros_array,
)

# ---------------------------------------------------------------------------
# zero tests


def residual_band(tol: TolerancePolicy) -> float:
    # shared threshold for "this identity should hold" checks in float mode
    return 10.0 * tol.rank_tol


def scale_of(*arrays: np.ndarray) -> float:
    """max(1, largest float magnitude); exact arrays count as 1."""
    s = 1.0
    for a in arrays:
        if a.size and a.dtype == np.float64:
            s = max(s, float(np.max(np.abs(a))))
    return s


def check_square_scale(*arrays: np.ndarray) -> None:
    """Refuse float data with a NaN or infinite entry, which passes or
    breaks every zero band (``scale_of`` skips a NaN), or whose square
    overflows: zero bands grow with it."""
    for a in arrays:
        if a.dtype == np.float64 and not np.isfinite(a).all():
            raise InputError(f"float entry {a[~np.isfinite(a)][0]} is not a finite number")
    sc = scale_of(*arrays)
    if not math.isfinite(sc * sc):
        raise InputError(f"float entry of magnitude {sc:.3g} is too large: its square overflows")


def is_zero_matrix(a: np.ndarray, mode: Mode, tol: TolerancePolicy,
                   scale: float | np.ndarray = 1.0,
                   axis: int | tuple[int, ...] | None = None) -> bool | np.ndarray:
    """The one zero test: in float mode max|a| <= residual_band(tol) *
    max(1, scale), which a NaN entry fails; exact arrays are zero when no
    entry is nonzero, and read no scale. An empty array is zero.

    With ``axis``, one answer per slice over the other axes, as a bool
    array, and ``scale`` broadcasts against that array.
    """
    if axis is None:
        if a.size == 0:
            return True
        if mode == EXACT:
            return not a.any()
        return float(np.max(np.abs(a))) <= residual_band(tol) * max(1.0, scale)
    if mode == EXACT:
        return ~np.asarray(a.any(axis=axis), dtype=bool)
    # a reduction over a strided view, such as a fancy-indexed stack, runs
    # several times slower than over the same values in C order
    peaks = np.abs(a, order="C").max(axis=axis, initial=0.0)
    return peaks <= residual_band(tol) * np.maximum(1.0, scale)


# ---------------------------------------------------------------------------
# exact elimination core (fraction-free, on lists of Python ints)


def _cancel(v: list[int], row: list[int], p: int) -> list[int]:
    """The primitive integer combination of v and row that is zero at column p."""
    g = math.gcd(row[p], v[p])
    a, b = row[p] // g, v[p] // g
    return _primitive([a * x - b * y for x, y in zip(v, row)])


class _ExactEchelon:
    """Primitive integer rows in reduced echelon form, added one at a time.

    Each stored row starts at its own pivot column and is zero at every
    other row's pivot; the rows are kept in pivot order. A row divided by
    its pivot entry is the matching row of the reduced row echelon form,
    which is unique, so the order the rows come in changes only the cost.
    Built from a whole matrix, the store scales its rows to ints in blocks
    that double in size, each over its own denominator, which changes no
    span, and stops at full rank. A block inserted later must be ints.
    """

    def __init__(self, a: Optional[np.ndarray] = None):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        width = 0 if a is None else a.shape[1]
        start, size = 0, width
        while len(self.rows) < width and start < a.shape[0]:
            for v in to_scaled(a[start:start + size])[0].tolist():
                if len(self.rows) == len(v):
                    break  # full rank: every later row is spanned
                self.add(v)
            start, size = start + size, 2 * size

    def insert(self, block: np.ndarray) -> np.ndarray:
        """Add the rows of an integer block in turn; returns those that were new."""
        return block[[self.add(v) for v in block.tolist()]]

    def add(self, v: list[int]) -> bool:
        """Add a row of ints; False if already spanned."""
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                v = _cancel(v, row, p)
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        v = _primitive(v)
        # back-reduce the stored rows at the new pivot column
        for k, row in enumerate(self.rows):
            if row[pivot] != 0:
                self.rows[k] = _cancel(row, v, pivot)
        k = bisect.bisect(self.pivots, pivot)
        self.rows.insert(k, v)
        self.pivots.insert(k, pivot)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def _rref(a: np.ndarray) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of an exact matrix: (nonzero rows, pivot cols).

    The echelon store's rows, each divided by its pivot entry. The RREF is
    unique, so it is the one Fraction Gauss-Jordan elimination gives.
    """
    e = _ExactEchelon(a)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(e.rows, e.pivots)], e.pivots


def _exact_nullspace(a: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Free columns of an exact matrix and its nullspace basis, one row per
    free column: primitive integer rows, each positive at its own free
    column and zero at the others."""
    e = _ExactEchelon(a)
    free = sorted(set(range(a.shape[1])) - set(e.pivots))
    null: list[list[int]] = []
    for f in free:
        used = [(row, p) for row, p in zip(e.rows, e.pivots) if row[f] != 0]
        # the basis vector that is 1 at f, times the lcm of its denominators
        den = math.lcm(*(row[p] for row, p in used))
        v = [0] * a.shape[1]
        v[f] = den
        for row, p in used:
            v[p] = -row[f] * (den // row[p])
        null.append(_primitive(v))
    return free, null


def _solve_scaled(a: np.ndarray, b: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
    """One solution of a @ x = b for exact matrices, free variables set to
    zero, as (ints, den); None if the system is inconsistent."""
    n = a.shape[1]
    e = _ExactEchelon(np.concatenate([a, b], axis=1))
    if e.pivots and e.pivots[-1] >= n:
        return None  # a pivot in the rhs block: inconsistent
    den = math.lcm(*(row[p] for row, p in zip(e.rows, e.pivots)))
    x = np.zeros((n, b.shape[1]), dtype=object)
    for row, p in zip(e.rows, e.pivots):
        x[p] = [v * (den // row[p]) for v in row[n:]]
    return x, den


def scaled_inverse(a: np.ndarray, mode: Mode) -> tuple[np.ndarray, int]:
    """The inverse of a square matrix on the scaled form: (ints, den) in
    exact mode, (inverse, 1) in float mode; InputError in both when a is singular."""
    try:
        if mode != EXACT:
            return np.linalg.inv(np.asarray(a, dtype=np.float64)), 1
        # a singular a leaves a pivot in the identity block
        x = _solve_scaled(a, np.identity(a.shape[0], dtype=int).astype(object))
    except np.linalg.LinAlgError:  # numpy's singular float matrix
        x = None
    if x is None:
        raise InputError("matrix is singular; cannot invert")
    return x


def exact_det(a: np.ndarray) -> Fraction:
    """Determinant, by Bareiss elimination (:func:`lcplab.base.int_det`) on
    the integer matrix d * a: det(a) = det(d * a) / d**n."""
    ai, d = to_scaled(a)
    return Fraction(int_det(ai.tolist()), d ** ai.shape[0])


# ---------------------------------------------------------------------------
# float core


def _float_rank_nullspace(a: np.ndarray, tol: TolerancePolicy) -> tuple[int, np.ndarray]:
    af = np.asarray(a, dtype=np.float64)
    # a tall or square matrix has all of V in its thin SVD; a wide one needs
    # the full V, whose rows past the row count span part of the nullspace
    _, s, vt = np.linalg.svd(af, full_matrices=af.shape[0] < af.shape[1])
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol.rank_tol * smax))
    return rank, vt[rank:]


# ---------------------------------------------------------------------------
# mode-dispatching API


def matrix_rank(a: np.ndarray, mode: Mode, tol: TolerancePolicy) -> int:
    if mode == EXACT:
        return _ExactEchelon(a).dim
    rank, _ = _float_rank_nullspace(a, tol)
    return rank


def solve_linear(a: np.ndarray, b: np.ndarray, mode: Mode,
                 tol: TolerancePolicy) -> Optional[tuple[np.ndarray, int]]:
    """One solution x of a @ x = b (b a vector or matrix) on the scaled form,
    (ints, den) in exact mode and (x, 1) in float mode; None if inconsistent.

    Exact mode sets the free variables of an underdetermined system to
    zero. Float mode takes the least-squares solution and holds every
    residual entry to the band at the scale of a and b; a NaN one fails.
    """
    shape = (a.shape[1],) + b.shape[1:]
    if mode == EXACT:
        x = _solve_scaled(a, b.reshape(a.shape[0], -1))
        return None if x is None else (x[0].reshape(shape), x[1])
    af = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64).reshape(a.shape[0], -1)
    x, *_ = np.linalg.lstsq(af, bb, rcond=None)
    if not is_zero_matrix(af @ x - bb, FLOAT, tol, scale_of(af, bb)):
        return None
    return x.reshape(shape), 1


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace given by a basis; rows of ``basis`` are the vectors."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, ambient_dim)
    mode: Mode

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def __repr__(self) -> str:  # keep test failures readable
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, mode={self.mode})"


def make_subspace(rows: Any, ambient_dim: int, mode: Mode,
                  tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    arr = np.array(rows, dtype=object if mode == EXACT else np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, ambient_dim)
    if arr.ndim != 2 or arr.shape[1] != ambient_dim:
        raise InputError(f"basis rows must have length {ambient_dim}")
    if arr.shape[0] and matrix_rank(arr, mode, tol) != arr.shape[0]:
        raise InputError("basis vectors are linearly dependent at the active tolerance")
    return Subspace(ambient_dim, arr, mode)


def zero_subspace(ambient_dim: int, mode: Mode) -> Subspace:
    return Subspace(ambient_dim, zeros_array((0, ambient_dim), mode), mode)


def full_subspace(ambient_dim: int, mode: Mode) -> Subspace:
    basis = np.identity(ambient_dim, dtype=object if mode == EXACT else np.float64)
    return Subspace(ambient_dim, basis, mode)


def rank_and_nullspace(a: np.ndarray, mode: Mode, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[int, Subspace]:
    """Rank and a nullspace basis; rank + nullity = column count.

    In exact mode the basis is primitive integer rows, one per free column
    and positive there; in float mode orthonormal rows from the SVD.
    """
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise InputError("empty matrix has no rank/nullspace decomposition")
    n = a.shape[1]
    if mode == EXACT:
        free, null = _exact_nullspace(a)
        return n - len(free), Subspace(n, np.array(null, dtype=object).reshape(len(null), n), EXACT)
    rank, null = _float_rank_nullspace(a, tol)
    return rank, Subspace(n, np.asarray(null, dtype=np.float64).reshape(-1, n), FLOAT)


def subspace_sum(parts: Sequence[Subspace], tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise InputError("subspace_sum needs at least one nonzero part")
    mode = parts[0].mode
    n = parts[0].ambient_dim
    rows = np.concatenate([p.basis for p in parts], axis=0)
    if matrix_rank(rows, mode, tol) != rows.shape[0]:
        raise InputError("subspace sum is not direct")
    return Subspace(n, rows, mode)


def orthocomplement(s: Subspace, gram: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement of s with respect to the inner product gram."""
    if s.dim == 0:
        return full_subspace(s.ambient_dim, s.mode)
    b, gm, _ = to_scaled(s.basis, gram)
    return rank_and_nullspace(b @ gm, s.mode, tol)[1]


def restricted_gram(basis_rows: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """B G B^T on the scaled form: in exact mode a positive multiple of it, in ints."""
    b, g, _ = to_scaled(basis_rows, gram)
    return int_matmul(int_matmul(b, g), b.T)


def _exact_span(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The annihilator of the row span of exact ``rows``, as the primitive
    integer rows of their nullspace, and the pivot columns of their
    echelon form, where independent rows have an invertible minor."""
    n = rows.shape[1]
    free, null = _exact_nullspace(rows)
    pivots = sorted(set(range(n)) - set(free))
    return np.array(null, dtype=object).reshape(len(null), n), pivots


def _left_images(left: np.ndarray, stack: np.ndarray, b: np.ndarray, out: int) -> np.ndarray:
    """left a_j b^T for every operator a_j of an integer (k, n, n) stack and
    the integer rows b, as a (k, r, m) array: exact integers, in float64
    when lifted. ``out`` is the number of its entries read as ints."""
    k, n, m = stack.shape[0], stack.shape[1], b.shape[0]
    # each entry of a_j b^T sums n terms, each at most A B, and each entry
    # of left times those n more, each at most L times one of them
    lifted = exact_floats([left, stack, b], lambda tl, ta, tb: n * n * tl * ta * tb,
                          k * n * m * (n + len(left)), out)
    if lifted:
        fl, fa, fb = lifted
        return fl @ (fa @ fb.T)
    return int_matmul(left, int_matmul(stack, b.T))


def is_invariant(stack: np.ndarray, rows: np.ndarray, mode: Mode, tol: TolerancePolicy) -> bool:
    """True when every operator of a (k, n, n) stack maps the span of the
    rows ``rows`` into itself.

    Exact mode takes the annihilator of the span once (:func:`_exact_span`)
    and decides with one zero test of the annihilator times the images,
    with no solve for their coordinates; a positive scale of the rows or
    the operators changes no answer. Float mode asks
    :func:`restrict_operator`, whose residual bands decide.
    """
    if mode != EXACT:
        return restrict_operator(stack, rows, mode, tol) is not None
    bi, ai, _ = to_scaled(rows, stack)
    return not _left_images(_exact_span(bi)[0], ai, bi, 0).any()


def restrict_operator(stack: np.ndarray, basis_rows: np.ndarray, mode: Mode,
                      tol: TolerancePolicy) -> Optional[np.ndarray]:
    """The (k, m, m) stack of the matrices of a (k, n, n) operator stack on
    the span of the m independent rows ``basis_rows``; None when any
    operator leaves it.

    Column convention on coordinates. Exact mode runs the test of
    :func:`is_invariant` and reads the coordinates off the inverse of the
    basis's m x m pivot minor B_P, in one product with it: an image
    y = B^T x has y_P = B_P^T x. The answer is ints, one positive multiple
    of the stack of rational matrices (the denominator of that inverse),
    which changes no span and no zero test. Float mode solves for all the
    images at once, holds each operator to its own residual band, set by
    the basis and its own images, and the span is invariant only when
    every residual lies within its band.
    """
    k, m, n = stack.shape[0], basis_rows.shape[0], basis_rows.shape[1]
    if m == 0:
        return zeros_array((k, 0, 0), mode)
    bi, ai, _ = to_scaled(basis_rows, stack)
    if mode == EXACT:
        ann, pivots = _exact_span(bi)
        if len(pivots) < m:
            raise InputError("basis rows are linearly dependent")
        # the rows of ann, which vanish on the images, then inv y_P = x times den
        left = np.zeros((m, n), dtype=object)
        left[:, pivots] = scaled_inverse(bi[:, pivots].T, EXACT)[0]
        z = _left_images(np.concatenate([ann, left]), ai, bi, k * m * m)
        if z[:, :len(ann)].any():
            return None
        x = z[:, len(ann):]
        return back_to_ints(x) if x.dtype == np.float64 else x
    # images[j, :, i] = a_j(basis_i), the right-hand side of one solve
    images = int_tensordot(ai, bi, axes=(2, 1))
    rhs = np.transpose(images, (1, 0, 2)).reshape(n, k * m)
    x, *_ = np.linalg.lstsq(basis_rows.T, rhs, rcond=None)
    res = (basis_rows.T @ x - rhs).reshape(n, k, m)
    sizes = np.abs(images).max(axis=(1, 2))
    if not is_zero_matrix(res, FLOAT, tol, np.maximum(scale_of(basis_rows), sizes),
                          axis=(0, 2)).all():
        return None
    # column i of operator j's matrix: the coordinates of a_j(basis_i)
    return np.transpose(x.reshape(m, k, m), (1, 0, 2))


def canonical_rows(rows: np.ndarray, mode: Mode, tol: TolerancePolicy) -> np.ndarray:
    """Canonical basis of the row span of independent rows B: its RREF. In
    float mode the pivots are the leftmost columns that raise the numerical
    rank (a singular value above rank_tol times B's largest), and the rows
    are B[:, piv]^-1 B."""
    if rows.shape[0] == 0:
        return rows
    if mode == EXACT:
        rref, _ = _rref(rows)
        return np.array(rref, dtype=object).reshape(len(rref), rows.shape[1])
    b = np.asarray(rows, dtype=np.float64)
    cut = tol.rank_tol * np.linalg.norm(b, 2)
    piv: list[int] = []
    for j in range(b.shape[1]):
        if len(piv) < b.shape[0] and np.linalg.svd(b[:, piv + [j]], compute_uv=False)[-1] > cut:
            piv.append(j)
    return np.linalg.solve(b[:, piv], b)


def support_indices(rows: np.ndarray, mode: Mode, tol: TolerancePolicy) -> tuple[int, ...]:
    """The columns where some row is nonzero, at the scale of all the rows."""
    if mode == FLOAT:
        rows = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(rows).all():
            raise InputError("support rows have a non-finite entry")
    zero = is_zero_matrix(rows, mode, tol, scale_of(rows), axis=0)
    return tuple(np.flatnonzero(~zero).tolist())


# ---------------------------------------------------------------------------
# span closures, on the exact store above, a float one or a GF(p) basis


class _FloatOrtho:
    """Orthonormal rows in one growing float64 matrix, with a relative-residual novelty test.

    Each insert projects the vector against all stored rows at once, in two
    classical Gram-Schmidt passes: the second pass restores orthogonality
    to working precision ("twice is enough", Giraud, Langou and Rozloznik
    2005). The vector is new when its residual after both passes exceeds
    the cut, rank_tol times max(1, its norm).

    The second pass applies the orthogonal projector I - q^T q once more,
    so it cannot lengthen the residual beyond roundoff. A vector whose
    first-pass residual is at or below half the cut is therefore rejected
    after one pass: two passes would reject it too. Every other vector
    takes both passes, so the kept rows are the same to the bit. Over 807
    float inputs (the corpus at four seeds, the gallery and the three large
    benchmark inputs), every one of 6,627 rejections had a first residual
    of at most 0.212 times the cut, and every one of 4,245 acceptances a
    final residual of at least 237 times it.
    """

    def __init__(self, width: int, tol: TolerancePolicy):
        self.tol = tol
        self.q = np.empty((0, width))

    def insert(self, block: np.ndarray) -> np.ndarray:
        """Test the rows of a block in turn; returns those kept, as they came."""
        return block[[self.add(v) for v in np.asarray(block, dtype=np.float64)]]

    def add(self, v: np.ndarray) -> bool:
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            return False
        # the norm is finite for every finite vector short of overflow
        if not math.isfinite(norm0) and not np.isfinite(v).all():
            raise InputError("closure candidate has a non-finite entry")
        cut = self.tol.rank_tol * max(1.0, norm0)
        r = v - (self.q @ v) @ self.q
        if float(np.linalg.norm(r)) <= 0.5 * cut:
            return False
        r = r - (self.q @ r) @ self.q
        res = float(np.linalg.norm(r))
        if res <= cut:
            return False
        self.q = np.vstack([self.q, r / res])
        return True

    @property
    def dim(self) -> int:
        return self.q.shape[0]


# GF(p) elimination runs on int64 residues and float64 products. A prime
# below MODP_LIMIT = 2**20 keeps every residue below 2**20 and every
# product of two below 2**40; a float64 sum of terms of magnitude at most
# (p - 1)**2 is an exact integer while (p - 1)**2 * terms < 2**53 (see
# :func:`modp_terms`: 2**13 terms for the largest such prime), in any
# order and with or without fused multiply-adds. Every product splits a
# longer inner length into chunks of that many terms.
MODP_LIMIT = 2**20
# rows eliminated together, with reduction mod p delayed until a row or a
# column is read: entries stay below MODP_PANEL * 2**40 + 2**20 in int64.
# Also the most images that one call of a closure's map makes (:func:`_closure`)
MODP_PANEL = 64


def _check_prime(p: int) -> None:
    if not 2 <= p < MODP_LIMIT:
        raise InputError(f"GF(p) elimination takes primes below 2**20, not {p}")


def modp_terms(p: int) -> int:
    """The most products of two residues mod p, each of magnitude at most
    (p - 1)**2, that one float64 sum adds exactly: the largest count with
    (p - 1)**2 * terms < 2**53. A prime of 2**20 or more is refused."""
    _check_prime(p)
    return (2**53 - 1) // (p - 1) ** 2


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int, c: Any = 0) -> np.ndarray:
    """(c + a @ b) mod p, entries in [0, p), for 2-d int64 arrays a and b
    with entries of magnitude below p and c, an int64 array or a scalar,
    in [0, p): one float64 product per chunk of at most :func:`modp_terms`
    terms of the inner length, each exact, added to c in int64 and
    reduced there."""
    af, bf, step = a.astype(np.float64), b.astype(np.float64), modp_terms(p)
    for s in range(0, max(1, a.shape[1]), step):
        part = (af[:, s:s + step] @ bf[s:s + step]).astype(np.int64)
        part += c
        c = np.remainder(part, p, out=part)
    return c


def _eliminate(panel: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced echelon rows over GF(p) of a panel of at most
    ``MODP_PANEL`` int64 rows, and their pivot columns.

    Gauss-Jordan elimination, one row at a time, with reduction mod p
    delayed until a row or a column is read: a row is reduced when it
    becomes the next pivot row, a column when it gives the multipliers.
    Each update subtracts a product of two residues, below 2**40 in size,
    from an entry at most once per pivot, and a pivot row is zero left of
    its pivot, so only the columns from it on are updated.
    """
    c = panel.copy()
    kept: list[int] = []
    pivots: list[int] = []
    for i in range(len(c)):
        row = c[i] % p
        nonzero = row.nonzero()[0]
        if not len(nonzero):
            continue
        f = int(nonzero[0])
        row = row * pow(int(row[f]), -1, p) % p
        c[i] = row
        mult = c[:, f] % p
        mult[i] = 0
        c[:, f:] -= mult[:, None] * row[None, f:]
        kept.append(i)
        pivots.append(f)
    return c[kept] % p, np.array(pivots, dtype=np.intp)


class _ModpBasis:
    """Reduced echelon rows over GF(p), kept by their free columns and
    grown by panels of rows.

    Each row is 1 at its own pivot column and 0 at every other row's, so
    only the other, free columns are kept: one int64 matrix ``cols`` with
    a row per echelon row and a column per free column, entries in [0, p).
    A vector minus its entries at the pivots times the rows is then zero
    at every pivot, and on the free columns it is one :func:`matmul_mod`.
    Every cost scales with the free columns, which shrink as the span
    fills the width.
    """

    def __init__(self, width: int, p: int):
        _check_prime(p)
        self.p = p
        self.width = width
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(width)
        self.cols = np.zeros((0, width), dtype=np.int64)

    def insert(self, block: np.ndarray) -> np.ndarray:
        """Add the rows of an int64 block with entries in [0, p); returns
        new rows, full width, that span the new span modulo the old one.

        The block goes in by panels of ``MODP_PANEL`` rows. A panel is
        reduced against every stored row in one product, which leaves its
        free columns, and its rows that are not zero then are eliminated
        (:func:`_eliminate`); a zero row lies in the stored span. Its new rows
        then clear their pivot columns from the stored rows in one product,
        join them, and those columns stop being free.
        """
        p, new = self.p, []
        for s in range(0, len(block), MODP_PANEL):
            panel = block[s:s + MODP_PANEL]
            panel = matmul_mod(-panel[:, self.pivots], self.cols, p, panel[:, self.free])
            rows, piv = _eliminate(panel[panel.any(axis=1)], p)
            if not len(rows):
                continue
            full = np.zeros((len(rows), self.width), dtype=np.int64)
            full[:, self.free] = rows
            new.append(full)
            keep = np.ones(len(self.free), dtype=bool)
            keep[piv] = False
            cols = matmul_mod(-self.cols[:, piv], rows, p, self.cols)
            self.cols = np.concatenate([cols, rows])[:, keep]
            self.pivots = np.concatenate([self.pivots, self.free[piv]])
            self.free = self.free[keep]
        return np.concatenate(new) if new else block[:0]

    @property
    def dim(self) -> int:
        return len(self.pivots)


# The closure front: two fixed integer combinations sum_z c(z) a_z of the
# operators a_0, a_1, ... of a closure's stack, with c(z) = z + 1 and
# c(z) = (-1)^z (2z + 1).
CLOSURE_FRONT = (lambda z: z + 1, lambda z: (-1) ** z * (2 * z + 1))


def closure_front(ops: np.ndarray) -> np.ndarray:
    """The ``CLOSURE_FRONT`` combinations of the operator stack ``ops``, as a
    stack. For a map linear in the operator, the images of m under them are
    the same combinations of its images under ``ops``: they lie in the
    closure, at the cost of two operators instead of all of them. An empty
    stack gives zero operators of the same shape."""
    k, width = len(ops), int(np.prod(ops.shape[1:]))
    z = np.arange(k)
    coeffs = np.array([c(z) for c in CLOSURE_FRONT], dtype=ops.dtype).reshape(-1, k)
    return int_matmul(coeffs, ops.reshape(k, width)).reshape(-1, *ops.shape[1:])


def _closure(store, seed: np.ndarray, stacks: Sequence[np.ndarray],
             apply: Callable[[np.ndarray, np.ndarray], np.ndarray], cap: int) -> np.ndarray:
    """Insert the rows of ``seed``, then images of the rows kept, into
    ``store`` until nothing new turns up or the span reaches ``cap``, the
    dimension of a space known to hold the closure; returns the rows kept.

    ``store.insert`` takes a block of rows and returns the rows it kept
    (:class:`_ModpBasis`: new rows spanning the new span modulo the old),
    and ``apply(stack, rows)`` the images of a block under each operator
    of ``stack``, kept-row-major. By generations: the seeds' kept rows N_0
    span V_0 = span(seed), and V_(i+1) = V_i + span(images of N_i) with
    kept rows N_(i+1). Each V_i lies in the closure. The N_j, j <= i, span
    V_i, and the images of N_j lie in V_(j+1), so every image of V_i lies
    in V_(i+1), whichever basis of V_i modulo V_(i-1) the N_i are: a
    generation that adds nothing leaves V_i closed. At the cap the span is
    the closure, and no candidate is tested or image made; as a row adds
    at most one dimension, below the width a block goes in by pieces no
    longer than the room left.

    The stacks run in turn, each from every row kept so far; when the
    images under the earlier ones lie in the closure under the last, as
    the :func:`closure_front`'s do, the kept rows span it. A generation is
    mapped in order, at most ``MODP_PANEL`` images per call (one row's for
    a longer stack), which bounds those pending, so a store tests the
    candidates in the order of a first-in first-out queue of kept rows. A
    call maps as many rows as it takes to fill the room left under the cap
    at the yield of the previous call, the share of its images that were
    kept (1 before the first call, and at most the panel's rows after a
    call that kept none): near the cap, where most images are dependent,
    a call maps more rows than the room alone asks for, and a closure
    whose images are all kept makes none that the cap cannot use.
    """
    width = seed.shape[1]

    def insert(block: np.ndarray) -> np.ndarray:
        kept, s = [block[:0]], 0
        while s < len(block) and store.dim < cap:
            step = cap - store.dim if cap < width else len(block)
            kept.append(store.insert(block[s:s + step]))
            s += step
        return np.concatenate(kept)

    kept = [insert(seed)]
    made = useful = 1  # the images of the previous call, and those it kept
    for stack in filter(len, stacks):  # an empty stack has no image
        panel, new = max(1, MODP_PANEL // len(stack)), np.concatenate(kept)
        while len(new) and store.dim < cap:
            images, s = [], 0
            while s < len(new) and store.dim < cap:
                need = -(-(cap - store.dim) * made // (useful * len(stack))) if useful else panel
                rows = min(panel, need)
                block = apply(stack, new[s:s + rows]).reshape(-1, width)
                images.append(insert(block))
                made, useful = len(block), len(images[-1])
                s += rows
            new = np.concatenate(images)
            kept.append(new)
    return np.concatenate(kept)


def span_closure(seed: Sequence[np.ndarray], ops: np.ndarray,
                 apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 mode: Mode, tol: TolerancePolicy = DEFAULT_TOL,
                 max_dim: Optional[int] = None) -> list[np.ndarray]:
    """The kept matrices of the smallest span of matrices containing ``seed``
    and closed under m -> its images under each operator of the stack
    ``ops``. ``apply(ops, block)``, linear in the operator and the matrix,
    gets kept matrices as a block of shape (b, 1, *shape), so that a map
    of one matrix that broadcasts over the stack, such as
    :func:`lcplab.scalars.int_commutator`, gives their images
    kept-matrix-major: the first matrix's under each operator, then the
    second's. No seed closes to nothing.

    The kept matrices span the closure and are taken as they came: in exact
    mode integer matrices (positive multiples of rational ones change no
    span), in the echelon store that every exact elimination uses.
    ``max_dim`` is the dimension of a space known to contain the closure.
    With it, :func:`_closure` first expands under the :func:`closure_front`
    of ``ops`` alone, whose images lie in the closure, so a span that
    reaches the cap is the closure; only a front that stalls below the cap
    goes on under ``ops``, which is all that runs without a cap.
    """
    if not len(seed):
        return []
    shape, width = seed[0].shape, seed[0].size
    store = _ExactEchelon() if mode == EXACT else _FloatOrtho(width, tol)
    stacks = [ops] if max_dim is None else [closure_front(ops), ops]
    kept = _closure(store, np.array(seed).reshape(-1, width), stacks,
                    lambda stack, rows: apply(stack, rows.reshape(-1, 1, *shape)),
                    width if max_dim is None else max_dim)
    return list(kept.reshape(-1, *shape))


def closure_dim_mod_p(seed: np.ndarray, ops: np.ndarray,
                      apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      p: int) -> int:
    """Dimension over GF(p), ``p`` a prime below ``MODP_LIMIT``, of the
    :func:`_closure` of the rows of ``seed`` under ``ops`` alone; 0 for no
    seed. ``seed`` is an int64 block with entries in [0, p), and ``apply``
    gives the images of such a block, kept-row-major and reduced the same
    way. A caller that wants a lower bound may pass a :func:`closure_front`.
    """
    if len(seed) == 0:
        return 0
    basis = _ModpBasis(seed.shape[1], p)
    _closure(basis, seed, [ops], apply, basis.width)
    return basis.dim


# ---------------------------------------------------------------------------
# eigensplitting of self-adjoint operators


# a float64 array as the exact Fractions its entries are
_EXACT_FLOAT = np.frompyfunc(Fraction, 1, 1)


@dataclass(frozen=True, eq=False)
class EigenSplit:
    """Eigenvalue -> eigenspace pairs of a self-adjoint operator."""

    pairs: tuple[tuple[Any, Subspace], ...]
    promoted_to_float: bool


def _exact_selfadjoint_eigensplit(p: np.ndarray, gram: np.ndarray,
                                  v: np.ndarray) -> Optional[list[tuple[Fraction, Subspace]]]:
    """The exact eigensplit when every eigenvalue is rational, else None.

    p is c/d times a primitive integer matrix P, whose characteristic
    polynomial is monic with integer coefficients, so each rational
    eigenvalue of p is c/d times an integer. Each float eigenvector (a
    column of ``v``) is read as the exact rational its floats are; its
    Rayleigh quotient for P, computed exactly, is rounded to the nearest
    integer k. A candidate is kept when P - k I has a nonzero exact
    nullspace, and the split is accepted once the nullities add up to n.
    A float error can only cost a candidate, never produce a wrong one, so
    the answer is None (promote to float) or exactly right.
    """
    n = p.shape[0]
    pi, gi, d = to_scaled(p, gram)
    c = math.gcd(*pi.reshape(-1).tolist()) or 1
    pi = pi // c
    vi = to_scaled(_EXACT_FLOAT(v))[0]
    # the Rayleigh quotient num / den of column j in the gram inner product;
    # the common denominators cancel
    num = ((gi @ pi) @ vi * vi).sum(axis=0)
    den = ((gi @ vi) * vi).sum(axis=0)
    pairs: list[tuple[Fraction, Subspace]] = []
    for k in sorted({(2 * a + b) // (2 * b) for a, b in zip(num, den)}):  # round(a / b)
        _, null = rank_and_nullspace(pi - k * np.identity(n, dtype=object), EXACT)
        if null.dim:
            pairs.append((Fraction(k * c, d), null))
    return pairs if sum(s.dim for _, s in pairs) == n else None


def _float_selfadjoint_eigensplit(w: np.ndarray, v: np.ndarray,
                                  tol: TolerancePolicy) -> list[tuple[float, Subspace]]:
    """Cluster the eigenvalues ``w`` within the tolerance, with their columns of ``v``."""
    n = len(w)
    merge = tol.eigen_cluster_tol * max(1.0, float(np.max(np.abs(w))) if n else 1.0)
    groups: list[list[int]] = [[0]]
    for i in range(1, n):
        if w[i] - w[i - 1] <= merge:
            groups[-1].append(i)
        else:
            gap = w[i] - w[i - 1]
            if gap <= 10.0 * merge:
                raise NumericalAmbiguityError(
                    f"eigenvalue gap {gap:.3e} sits inside the ambiguity band near the "
                    f"cluster tolerance {merge:.3e}",
                    suggestion="rerun with a smaller --tol or a different --seed",
                )
            groups.append([i])
    pairs: list[tuple[float, Subspace]] = []
    for grp in groups:
        val = float(np.mean(w[grp]))
        rows = v[:, grp].T.astype(np.float64)
        pairs.append((val, Subspace(n, rows, FLOAT)))
    return pairs


def selfadjoint_eigensplit(p: np.ndarray, gram: np.ndarray, mode: Mode,
                           tol: TolerancePolicy = DEFAULT_TOL) -> EigenSplit:
    """Eigensplit of a gram-self-adjoint operator (column convention).

    Both modes start from one float generalized eigendecomposition of
    S v = w G v, with S = G p symmetrised, by Cholesky reduction: G = L L^T,
    C = L^-1 S L^-T, C y = w y, v = L^-T y (the reduction LAPACK's sygvd
    makes), so the columns of v are G-orthonormal. A gram that is not
    positive definite raises ``np.linalg.LinAlgError``. Exact mode confirms
    its eigenvalues exactly when all are rational (see
    :func:`_exact_selfadjoint_eigensplit`), in any dimension; otherwise it
    promotes to the float split, and the promotion is flagged.
    """
    gf = to_float_array(gram)
    s = gf @ to_float_array(p)
    low = np.linalg.cholesky((gf + gf.T) / 2.0)
    c = np.linalg.solve(low, np.linalg.solve(low, (s + s.T) / 2.0).T)
    w, y = np.linalg.eigh((c + c.T) / 2.0)
    v = np.linalg.solve(low.T, y)
    if mode == EXACT:
        pairs = _exact_selfadjoint_eigensplit(p, gram, v)
        if pairs is not None:
            return EigenSplit(tuple(pairs), False)
    return EigenSplit(tuple(_float_selfadjoint_eigensplit(w, v, tol)), mode == EXACT)
