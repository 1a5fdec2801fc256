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
One closure loop, :func:`_close`, serves the exact store, the float one
and one over GF(p) on int64 vectors, for a dimension alone
(:func:`closure_dim_mod_p`). It takes operator stacks and a map, and
expands every kept matrix under each stack its caller lists, in turn:
:func:`span_closure` lists the :func:`closure_front` of its operators,
then the operators, when it has a cap, and the operators alone without
one; it tests the images of one kept matrix before it expands the next.
:func:`restrict_operator` takes a whole stack of operators and solves
for all their images at once; it is the one test of whether operators
preserve a subspace.

Both modes split a self-adjoint operator from one float generalized
eigendecomposition. Exact mode rounds the exact Rayleigh quotient of
each float eigenvector to the grid its rational eigenvalues lie on and
confirms each candidate by an exact nullspace, in any dimension; when
the eigenspaces found do not fill the space it promotes to the float
split, so no float error can make an exact answer wrong.

Code that runs in both modes works on the scaled form of
:mod:`lcplab.scalars`, where a float array is its own scaled form over
denominator 1, so it is written once.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .base import _primitive, int_charpoly, int_det
from .errors import InputError, NumericalAmbiguityError
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Mode,
    TolerancePolicy,
    eye_array,
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
    """Refuse float data whose square overflows: zero bands grow with it."""
    sc = scale_of(*arrays)
    if not math.isfinite(sc * sc):
        raise InputError(f"float entry of magnitude {sc:.3g} is too large: its square overflows")


def is_zero_matrix(a: np.ndarray, mode: Mode, tol: TolerancePolicy, scale: float = 1.0) -> bool:
    if a.size == 0:
        return True
    if mode == EXACT:
        return not a.any()
    return float(np.max(np.abs(a))) <= residual_band(tol) * max(1.0, scale)


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
    Built from a whole matrix, the store scales it to ints once; a vector
    inserted on its own must already be ints.
    """

    def __init__(self, a: Optional[np.ndarray] = None):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for v in [] if a is None else to_scaled(a)[0].tolist():
            self.add(v)

    def insert(self, vec: np.ndarray) -> bool:
        """Add an integer vector; False if already spanned."""
        return self.add(vec.tolist())

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
    exact mode, (inverse, 1) in float mode."""
    if mode != EXACT:
        return np.linalg.inv(np.asarray(a, dtype=np.float64)), 1
    # a singular a leaves a pivot in the identity block
    x = _solve_scaled(a, np.identity(a.shape[0], dtype=int).astype(object))
    if x is None:
        raise InputError("matrix is singular; cannot invert")
    return x


def exact_det(a: np.ndarray) -> Fraction:
    """Determinant, by Bareiss elimination (:func:`lcplab.base.int_det`) on
    the integer matrix d * a: det(a) = det(d * a) / d**n."""
    ai, d = to_scaled(a)
    return Fraction(int_det(ai.tolist()), d ** ai.shape[0])


def charpoly_exact(a: np.ndarray) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(X*I - a), constant term first.

    Berkowitz's algorithm (:func:`lcplab.base.int_charpoly`) on the
    integer matrix d * a; the coefficient of X**(n-k) for a is the one for
    d * a divided by d**k.
    """
    ai, d = to_scaled(a)
    n = ai.shape[0]
    return tuple(Fraction(c, d ** (n - j)) for j, c in enumerate(int_charpoly(ai.tolist())))


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
    res = np.abs(af @ x - bb)
    if not np.all(res <= residual_band(tol) * scale_of(af, bb)):
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


def restrict_operator(stack: np.ndarray, basis_rows: np.ndarray, mode: Mode,
                      tol: TolerancePolicy) -> Optional[np.ndarray]:
    """The (k, m, m) stack of the matrices of a (k, n, n) operator stack on
    the span of the m rows ``basis_rows``; None when any operator leaves it.

    Column convention on coordinates. The images of all the operators are
    solved for in one system. In exact mode the answer is ints, one
    positive multiple of the stack of rational matrices (the common
    denominator of the solve), which changes no span and no zero test. In
    float mode each operator is held to its own residual band, set by the
    basis and its own images, and the span is invariant only when every
    residual lies within its band.
    """
    k, m, n = stack.shape[0], basis_rows.shape[0], basis_rows.shape[1]
    bi, ai, d = to_scaled(basis_rows, stack)
    # images[j, :, i] = d * d * a_j(basis_i), the right-hand side of one solve
    images = int_tensordot(ai, bi, axes=(2, 1))
    rhs = np.transpose(images, (1, 0, 2)).reshape(n, k * m)
    if m == 0:
        x = zeros_array((0, 0), mode)
    elif mode == EXACT:
        # (bi / d)^T x = images / d^2 is the integer system d bi^T x = images
        solved = _solve_scaled(d * bi.T, rhs)
        x = None if solved is None else solved[0]
    else:
        x, *_ = np.linalg.lstsq(basis_rows.T, rhs, rcond=None)
        res = np.abs(basis_rows.T @ x - rhs).reshape(n, k, m).max(axis=(0, 2))
        sizes = np.abs(images).max(axis=(1, 2))
        band = residual_band(tol) * np.maximum(scale_of(basis_rows), sizes)
        if not np.all(res <= band):
            x = None
    if x is None:
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
    if rows.shape[0] == 0:
        return ()
    if mode == EXACT:
        return tuple(np.flatnonzero(rows.any(axis=0)).tolist())
    peaks = np.abs(np.asarray(rows, dtype=np.float64)).max(axis=0)
    if not np.isfinite(peaks).all():
        raise InputError("support rows have a non-finite entry")
    cut = residual_band(tol) * scale_of(peaks)
    return tuple(np.flatnonzero(peaks > cut).tolist())


# ---------------------------------------------------------------------------
# span closures, on the exact store above, a float one or one over GF(p)


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

    def insert(self, vec: np.ndarray) -> bool:
        v = np.asarray(vec, dtype=np.float64)
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


class _ModpEchelon:
    """Reduced echelon rows over GF(p), stored by their free columns.

    Entries stay in [0, p). Each row is 1 at its own pivot column and 0 at
    every other row's, so only the other, free columns are kept: one int64
    matrix with a row per free column and a column per echelon row. A
    vector's residual is then 0 at every pivot, and on the free columns it
    is one product with that matrix. Each term of the product is below
    p**2; the echelon rows are taken in chunks small enough that a chunk's
    sum fits in int64.
    """

    def __init__(self, width: int, p: int):
        self.p = p
        self.chunk = max(1, 2 ** 62 // (p * p))
        self.free = np.arange(width)
        self.pivots = np.empty(0, dtype=np.intp)
        self.cols = np.empty((width, 0), dtype=np.int64)

    def insert(self, vec: np.ndarray) -> bool:
        """Add an int64 vector with entries in [0, p); False if already spanned."""
        p, c = self.p, self.chunk
        head = vec[self.pivots]
        r = vec[self.free]
        for s in range(0, len(self.pivots), c):
            r = (r - self.cols[:, s:s + c] @ head[s:s + c]) % p
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            return False
        f = int(nonzero[0])
        r = r * pow(int(r[f]), -1, p) % p
        # clear the new pivot column from the stored rows, then drop it
        cols = (self.cols - np.outer(r, self.cols[f])) % p
        self.cols = np.delete(np.column_stack([cols, r]), f, axis=0)
        self.pivots = np.append(self.pivots, self.free[f])
        self.free = np.delete(self.free, f)
        return True

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


def _close(store, seed: Sequence[np.ndarray], stacks: Sequence[np.ndarray],
           apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
           max_dim: Optional[int]) -> list[np.ndarray]:
    """Insert ``seed``, then images of the kept matrices, into ``store``
    until nothing new turns up or the span reaches ``max_dim``; returns
    the kept matrices.

    The images come stack by stack: under each operator stack of
    ``stacks`` in turn, ``apply(stack, m)`` for every kept matrix m in the
    order kept, from the first. What an earlier stack kept stays, and its
    images under that stack are not tried again. At most one batch is
    pending: the images of one kept matrix are all tested before the next
    is expanded.
    """
    accepted: list[np.ndarray] = []

    def full(batch: Sequence[np.ndarray]) -> bool:
        # insert a batch; True once the span has reached max_dim
        for m in batch:
            if store.dim == max_dim:
                return True
            if m.shape != seed[0].shape:
                raise InputError("span_closure matrices must share one shape")
            if store.insert(m.reshape(-1)):
                accepted.append(m)
        return store.dim == max_dim

    if full(seed):
        return accepted
    for stack in stacks:
        expanded = 0
        while expanded < len(accepted):
            if full(apply(stack, accepted[expanded])):
                return accepted
            expanded += 1
    return accepted


def span_closure(seed: Sequence[np.ndarray], ops: np.ndarray,
                 apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 mode: Mode, tol: TolerancePolicy = DEFAULT_TOL,
                 max_dim: Optional[int] = None) -> list[np.ndarray]:
    """The kept matrices of the smallest span of matrices containing ``seed``
    and closed under m -> ``apply(ops, m)``, the images of m under each
    operator of the stack ``ops``; ``apply`` must be linear in the operator
    and in m. No seed closes to nothing.

    The kept matrices span the closure and are taken as they came: in exact
    mode the seeds and the images are integer matrices (positive multiples
    of rational ones change no span), inserted into the same echelon store
    that every exact elimination uses. ``max_dim`` is the dimension of a
    space known to contain the closure: once the span reaches it, every
    remaining candidate would be rejected, so the search stops and expands
    nothing more. With a cap, each kept matrix is first expanded under the
    :func:`closure_front` of ``ops`` alone; those images lie in the
    closure, so a span that reaches the cap is the closure. Only when that
    front stalls below the cap does the same store go on with the images
    under ``ops``, which is all that runs without a cap.
    """
    width = seed[0].size if seed else 0
    store = _ExactEchelon() if mode == EXACT else _FloatOrtho(width, tol)
    stacks = [ops] if max_dim is None else [closure_front(ops), ops]
    return _close(store, seed, stacks, apply, max_dim)


def closure_dim_mod_p(seed: Sequence[np.ndarray], ops: np.ndarray,
                      apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      p: int) -> int:
    """Dimension over GF(p) of the span closure of ``seed`` under
    m -> ``apply(ops, m)``; 0 for no seed.

    The matrices are int64 with entries in [0, p), and ``apply`` must
    return them reduced the same way. The search stops once the span fills
    the whole matrix space. It expands under ``ops`` alone: a caller that
    wants only a lower bound may pass the :func:`closure_front` of its
    operators.
    """
    width = seed[0].size if seed else 0
    store = _ModpEchelon(width, p)
    _close(store, seed, [ops], apply, width)
    return store.dim


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
                    suggestion="tighten eigen_cluster_tol or rerun with a different seed",
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


def symmetric_eigensplit(m: np.ndarray, mode: Mode, tol: TolerancePolicy = DEFAULT_TOL) -> EigenSplit:
    """Eigensplit of a plain symmetric matrix; rejects asymmetric input."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("symmetric_eigensplit expects a square matrix")
    if not is_zero_matrix(m - m.T, mode, tol, scale=scale_of(m)):
        raise InputError("matrix is not symmetric")
    return selfadjoint_eigensplit(m, eye_array(m.shape[0], mode), mode, tol)
