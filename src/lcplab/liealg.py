"""Metric Lie algebras and their invariant connections.

Conventions, fixed once for the whole package:

* structure tensor ``c`` with ``[e_i, e_j] = sum_k c[i, j, k] e_k``;
* operators act on column coordinate vectors, so the matrix of ``ad_{e_i}``
  is ``c[i].T``;
* connection coefficient tensors follow the same layout as ``c``.

Each structure condition is one decision on the scaled-integer bracket:
subalgebra and ideal are one invariance test of the stacked ad operators
through :func:`linalg.is_invariant`, which in exact mode is one zero test
of the subspace's annihilator times their images, and unimodularity one
zero test of the whole trace vector.

No n**4 tensor is built whole unless a caller asks for it. The Jacobi
terms [[e_i, e_j], e_k] and the curvature R(e_i, e_j) are built a slab of
first indices i at a time (:func:`row_slabs`), each term of a slab one
matrix product (:func:`slab_product`) on operands lifted once per call
site, so the Jacobi check, the curvature seeds and the LCP flatness tests
need n**3 memory. A single curvature operator in float mode is read off
the slab that holds it, so it agrees bit for bit with the whole tensor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .base import leading_minors
from .errors import InputError
from .linalg import (
    Subspace,
    check_square_scale,
    is_invariant,
    is_zero_matrix,
    scale_of,
    scaled_inverse,
)
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Mode,
    TolerancePolicy,
    array_for_mode,
    as_fraction,
    back_to_ints,
    check_mode,
    diagonal_blocks,
    exact_floats,
    from_scaled,
    int_matmul,
    int_tensordot,
    lowest_terms,
    scaled_array,
    to_scaled,
    zeros_array,
)

LEVI_CIVITA = "levi_civita"
WEYL = "weyl"


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """A Lie algebra with a chosen basis and a positive definite inner product,
    both kept on the scaled form of ``scalars.to_scaled``, in lowest terms;
    their rational views ``bracket`` and ``gram`` are built when read."""

    scaled_bracket: tuple[np.ndarray, int]  # (n, n, n) over one denominator
    scaled_gram: tuple[np.ndarray, int]  # (n, n) over one denominator
    mode: Mode
    basis_names: tuple[str, ...]
    tol: TolerancePolicy

    def __post_init__(self) -> None:
        if len(self.basis_names) != self.dim:
            raise InputError(f"expected {self.dim} basis names, got {len(self.basis_names)}")
        check_square_scale(self.scaled_bracket[0], self.scaled_gram[0])

    @property
    def dim(self) -> int:
        return int(self.scaled_bracket[0].shape[0])

    @cached_property
    def bracket(self) -> np.ndarray:  # (n, n, n)
        return from_scaled(*self.scaled_bracket)

    @cached_property
    def gram(self) -> np.ndarray:  # (n, n)
        return from_scaled(*self.scaled_gram)

    @cached_property
    def scaled_gram_inverse(self) -> tuple[np.ndarray, int]:
        """G^-1 as (ints, den) in lowest terms, see ``linalg.scaled_inverse``."""
        gram, dg = self.scaled_gram
        ginv, di = scaled_inverse(gram, self.mode)
        return lowest_terms(ginv * dg, di)

    @cached_property
    def levi_civita(self) -> InvariantConnection:
        """The Levi-Civita connection, built once per algebra."""
        return levi_civita(self)

    @cached_property
    def validation(self) -> ValidationReport:
        """The :func:`validate_algebra` report, computed once per algebra."""
        return _validation_report(self)

    def __repr__(self) -> str:
        return f"MetricLieAlgebra(dim={self.dim}, mode={self.mode})"


def bracket_table(n: int, entries: Mapping[tuple[int, int], Any], mode: Mode = EXACT) -> np.ndarray:
    """Structure tensor from a sparse table of brackets of basis vectors.

    ``entries[(i, j)]`` is the coordinate vector of ``[e_i, e_j]``, either a
    full length-n sequence or a dict {index: coefficient}; the antisymmetric
    counterpart is filled in automatically, and an index outside range(n) refused.
    """
    c = zeros_array((n, n, n), mode)
    for (i, j), vec in entries.items():
        if i not in range(n) or j not in range(n):
            raise InputError(f"bracket pair ({i}, {j}) is out of range for dimension {n}")
        if i == j:
            raise InputError("bracket of a basis vector with itself must be omitted")
        if isinstance(vec, Mapping):
            full = zeros_array((n,), mode)
            for k, val in vec.items():
                if k not in range(n):
                    raise InputError(f"coefficient index {k} is out of range for dimension {n}")
                full[k] = array_for_mode([val], mode)[0]
            v = full
        else:
            v = array_for_mode(vec, mode)
        if v.shape != (n,):
            raise InputError(f"bracket entry ({i}, {j}) must be a length-{n} vector")
        c[i, j, :] = v
        c[j, i, :] = -v
    return c


def make_algebra(bracket: Any, gram: Any = None, mode: Mode = EXACT,
                 basis_names: Optional[Sequence[str]] = None,
                 tol: TolerancePolicy = DEFAULT_TOL, check: bool = True) -> MetricLieAlgebra:
    check_mode(mode)
    c = scaled_array(bracket, mode)
    if c[0].ndim != 3 or len(set(c[0].shape)) != 1:
        raise InputError("bracket tensor must have shape (n, n, n)")
    n = c[0].shape[0]
    g = scaled_array(np.identity(n, dtype=int) if gram is None else gram, mode)
    if g[0].shape != (n, n):
        raise InputError(f"gram matrix must have shape ({n}, {n})")
    names = (tuple(f"e{i}" for i in range(n)) if basis_names is None
             else tuple(str(s) for s in basis_names))
    alg = MetricLieAlgebra(c, g, mode, names, tol)
    return checked_algebra(alg) if check else alg


def checked_algebra(g: MetricLieAlgebra) -> MetricLieAlgebra:
    """``g`` itself when it passes :func:`validate_algebra`; InputError otherwise."""
    report = validate_algebra(g)
    if not report.passed:
        raise InputError("invalid algebra data: " + "; ".join(report.failures()))
    return g


def to_float_algebra(g: MetricLieAlgebra) -> MetricLieAlgebra:
    if g.mode == FLOAT:
        return g
    # ints / den divides each Python int by den, rounded once, as float() of the rational is
    return MetricLieAlgebra(((g.scaled_bracket[0] / g.scaled_bracket[1]).astype(np.float64), 1),
                            ((g.scaled_gram[0] / g.scaled_gram[1]).astype(np.float64), 1),
                            FLOAT, g.basis_names, g.tol)


def direct_sum_algebra(a: MetricLieAlgebra, b: MetricLieAlgebra) -> MetricLieAlgebra:
    """Orthogonal direct sum of two metric Lie algebras."""
    if a.mode != b.mode:
        raise InputError("direct sum requires matching scalar modes")
    left = a.basis_names
    right = tuple(nm + "'" if nm in left else nm for nm in b.basis_names)
    return MetricLieAlgebra(diagonal_blocks(a.scaled_bracket, b.scaled_bracket),
                            diagonal_blocks(a.scaled_gram, b.scaled_gram),
                            a.mode, left + right, a.tol)


def transform_algebra(g: MetricLieAlgebra, q: np.ndarray) -> MetricLieAlgebra:
    """Pull the algebra back along a new basis; row i of q is the new e_i.

    The result is isomorphic and isometric to the input, with gram
    q G q^T, so it has the same factor dimensions, holonomy dimension and
    every other invariant.
    """
    if q.shape != (g.dim, g.dim):
        raise InputError("change of basis matrix has the wrong shape")
    c, dc = g.scaled_bracket
    qi, dq = to_scaled(q)
    gram, dg = g.scaled_gram
    qinv, di = scaled_inverse(q, g.mode)
    # t[i, k, j] = the e_k component of [q_i, q_j]
    t = int_tensordot(int_tensordot(qi, c, axes=(1, 0)), qi, axes=(1, 1))
    full = int_tensordot(t, qinv, axes=(1, 0))
    # the upper triangle, mirrored: float output stays exactly antisymmetric
    iu, ju = np.triu_indices(g.dim, 1)
    new = np.zeros_like(full)
    new[iu, ju] = full[iu, ju]
    new[ju, iu] = -full[iu, ju]
    return MetricLieAlgebra(lowest_terms(new, dc * dq * dq * di),
                            lowest_terms(int_matmul(int_matmul(qi, gram), qi.T), dq * dq * dg),
                            g.mode, g.basis_names, g.tol)


# ---------------------------------------------------------------------------
# bracket operations


def bracket_vec(g: MetricLieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c, dc = g.scaled_bracket
    xi, yi, d = to_scaled(x, y)
    t = np.tensordot(xi, c, axes=(0, 0))  # t[j, k] = sum_i x_i c[i,j,k]
    return from_scaled(np.tensordot(yi, t, axes=(0, 0)), d * d * dc)


def ad_matrix(g: MetricLieAlgebra, i: int) -> np.ndarray:
    return g.bracket[i].T


def inner(g: MetricLieAlgebra, x: np.ndarray, y: np.ndarray):
    return x @ g.gram @ y


def is_subalgebra(g: MetricLieAlgebra, s: Subspace) -> bool:
    """True when every ad_x, x in a basis of s, preserves s: one invariance
    test, :func:`linalg.is_invariant`, on the scaled bracket and basis (a
    positive scale changes no invariant subspace). A subspace of full
    dimension is the whole algebra, which its own bracket preserves, and
    takes no test."""
    if s.dim == g.dim:
        return True
    b = to_scaled(s.basis)[0]
    ad = int_tensordot(b, g.scaled_bracket[0], axes=(1, 0))
    return is_invariant(np.transpose(ad, (0, 2, 1)), b, g.mode, g.tol)


def is_ideal(g: MetricLieAlgebra, s: Subspace) -> bool:
    """True when every ad_{e_i} preserves s, in one invariance test; a
    subspace of full dimension takes none, as in :func:`is_subalgebra`."""
    if s.dim == g.dim:
        return True
    return is_invariant(np.transpose(g.scaled_bracket[0], (0, 2, 1)), s.basis, g.mode, g.tol)


def is_unimodular(g: MetricLieAlgebra) -> bool:
    c = g.scaled_bracket[0]
    return is_zero_matrix(np.trace(c, axis1=1, axis2=2), g.mode, g.tol, scale=scale_of(c))


# ---------------------------------------------------------------------------
# slabs of n**4 tensors

# An n**4 tensor is built a slab of first indices at a time, each slab of
# at most SLAB_ENTRIES entries (one index when n**3 alone is more): three
# slab-sized products and sums are live at once, n**3 memory instead of
# n**4. 2**15 float64 entries are 256 KiB, so those three and the
# operands of a dim-29 algebra fit a 2 MiB L2 cache. Measured on one core
# of a Xeon with 2 MiB of L2 per core, validation plus the curvature seeds
# of float sl_example(3), dim 29, took 9 ms with 2**15, 15 ms with 2**16
# to 2**18 and 23 ms on whole tensors; dims 14 and 17 were no slower.
SLAB_ENTRIES = 2**15


def row_slabs(n: int) -> list[slice]:
    """Consecutive slices covering range(n), each of as many first indices
    as an (r, n, n, n) slab of at most SLAB_ENTRIES entries holds, one at
    least. They depend on n alone, so every caller cuts the same slabs."""
    step = max(1, SLAB_ENTRIES // max(1, n ** 3))
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def slab_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z[p, q, s, m] = sum_l x[p, q, l] y[l, s, m], as one matrix product of
    x's rows and y's columns: with x = c[rows] and y = c, [[e_i, e_j], e_k]
    for i in rows. It runs on whatever arrays it is handed, object ints,
    their float64 lift or float64, and each entry is the same sum of the
    same terms whichever slab holds it."""
    n = y.shape[0]
    z = x.reshape(-1, n) @ y.reshape(n, -1)
    return z.reshape(x.shape[:2] + y.shape[1:])


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_violations: tuple[tuple[int, int], ...]
    jacobi_violations: tuple[tuple[int, int, int], ...]
    gram_symmetric: bool
    gram_positive_definite: bool

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if self.antisymmetry_violations:
            out.append(f"antisymmetry fails at pairs {list(self.antisymmetry_violations)}")
        if self.jacobi_violations:
            out.append(f"jacobi identity fails at triples {list(self.jacobi_violations)}")
        if not self.gram_symmetric:
            out.append("gram matrix is not symmetric")
        if not self.gram_positive_definite:
            out.append("gram matrix is not positive definite")
        return out


def _is_positive_definite(gram: np.ndarray, mode: Mode, tol: TolerancePolicy) -> bool:
    """On the scaled Gram matrix: a positive scale changes no sign below."""
    n = gram.shape[0]
    if mode == EXACT:
        # Sylvester's criterion on the integer matrix
        return all(m > 0 for m in leading_minors(gram.tolist()))
    w = np.linalg.eigvalsh(np.asarray(gram, dtype=np.float64))
    top = float(np.max(np.abs(w))) if n else 0.0
    return bool(n == 0 or w[0] > tol.rank_tol * max(1.0, top))


def validate_algebra(g: MetricLieAlgebra) -> ValidationReport:
    """Antisymmetry, Jacobi and the Gram tests of ``g``; the report is
    cached on the algebra, whose arrays are not changed after it is built,
    so an algebra that ``make_algebra`` checked is not validated again."""
    return g.validation


@lru_cache(maxsize=16)
def _pairs_and_triples(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i <= j and the triples i < j < k of range(n), as (m, 2) and
    (m, 3) index arrays in lexicographic order; read-only, shared per n."""
    pairs = np.stack(np.triu_indices(n), axis=1)
    above = np.triu(np.ones((n, n), dtype=bool), 1)  # above[i, j] is i < j
    triples = np.argwhere(above[:, :, None] & above[None])
    pairs.setflags(write=False)
    triples.setflags(write=False)
    return pairs, triples


def _validation_report(g: MetricLieAlgebra) -> ValidationReport:
    n = g.dim
    # zero tests do not see a common positive scale, so exact ones run on ints
    c = g.scaled_bracket[0]
    sc = scale_of(c)
    # every entry, term and partial sum below is at most 3 n max|c|**2
    c, = exact_floats([c], lambda tc: 3 * n * tc * tc, n ** 5) or (c,)
    sym = c + np.transpose(c, (1, 0, 2))  # sym[i, j] = c[i, j, :] + c[j, i, :]
    pairs, triples = _pairs_and_triples(n)
    anti = pairs[~is_zero_matrix(sym[tuple(pairs.T)], g.mode, g.tol, sc, axis=-1)]
    jac = [triples[:0]]
    for rows in row_slabs(n):
        # the m-th components of [[e_i, e_j], e_k], [[e_j, e_k], e_i] and
        # [[e_k, e_i], e_j] for i in rows and j, k >= s, summed at [i, j, k]
        # in that order; every triple i < j < k with i in rows is among them
        s = rows.start
        t = slab_product(c[rows, s:], c[:, s:])
        if rows.stop == n:
            # t holds every [[e_a, e_b], e_c] with a, b, c >= s, so the other
            # two terms too, as with a single slab
            total = t + np.transpose(t, (2, 0, 1, 3))
            total += np.transpose(t, (1, 2, 0, 3))
        else:
            total = t
            total += np.transpose(slab_product(c[s:, s:], c[:, rows]), (2, 0, 1, 3))
            total += np.transpose(slab_product(c[s:, rows], c[:, s:]), (1, 2, 0, 3))
        lo, hi = np.searchsorted(triples[:, 0], (s, rows.stop))
        i, j, k = (triples[lo:hi] - s).T
        zero = is_zero_matrix(total[i, j, k], g.mode, g.tol, sc * sc, axis=-1)
        jac.append(triples[lo:hi][~zero])
    gram = g.scaled_gram[0]
    gram_sym = is_zero_matrix(gram - gram.T, g.mode, g.tol, scale=scale_of(gram))
    gram_pd = gram_sym and _is_positive_definite(gram, g.mode, g.tol)
    return ValidationReport(tuple(map(tuple, anti.tolist())),
                            tuple(map(tuple, np.concatenate(jac).tolist())), gram_sym, gram_pd)


# ---------------------------------------------------------------------------
# invariant connections


@dataclass(frozen=True, eq=False)
class InvariantConnection:
    """Left-invariant connection given by its coefficient tensor.

    ``coeffs[i, j, k]`` is the ``e_k`` component of the derivative of ``e_j``
    along ``e_i``. The tensor is kept on the scaled form, ``scaled`` =
    (ints, den) in lowest terms or (float64 tensor, 1); the Fraction view
    ``coeffs`` is built only when a caller reads it.
    """

    scaled: tuple[np.ndarray, int]  # (n, n, n) coefficients over one denominator
    kind: str
    mode: Mode

    @property
    def dim(self) -> int:
        return int(self.scaled[0].shape[0])

    @property
    def scaled_operators(self) -> np.ndarray:
        """All operators on the scaled form, each ``scaled[1]`` times its matrix."""
        return np.transpose(self.scaled[0], (0, 2, 1))

    @cached_property
    def coeffs(self) -> np.ndarray:
        return from_scaled(*self.scaled)

    def operator(self, i: int) -> np.ndarray:
        return self.coeffs[i].T

    @property
    def operators(self) -> np.ndarray:
        """All operators as one (n, n, n) stack: ``operators[i] == operator(i)``."""
        return np.transpose(self.coeffs, (0, 2, 1))


def levi_civita(g: MetricLieAlgebra) -> InvariantConnection:
    """The unique torsion-free metric connection; ``g.levi_civita`` keeps it.

    Defined by 2<D_x y, z> = <[x,y],z> + <[z,x],y> - <[y,z],x> on
    left-invariant fields.
    """
    n = g.dim
    c, dc = g.scaled_bracket
    gram, dg = g.scaled_gram
    ginv, di = g.scaled_gram_inverse
    # |b| <= n max|c| max|gram|, |rhs| <= 3 times that, and every entry and
    # partial sum of coeffs is at most n times max|rhs| max|ginv|
    lifted = exact_floats([c, gram, ginv], lambda tc, tg, ti: 3 * n * n * tc * tg * ti,
                          2 * n ** 4, n ** 3)
    c, gram, ginv = lifted or (c, gram, ginv)
    b = int_tensordot(c, gram, axes=(2, 0))  # b[i,j,z] = <[e_i,e_j], e_z>
    # rhs[i, j, z] = b[i, j, z] + b[z, i, j] - b[j, z, i]
    rhs = b + np.transpose(b, (1, 2, 0)) - np.transpose(b, (2, 0, 1))
    coeffs = int_tensordot(rhs, ginv, axes=(2, 0))
    if lifted:
        coeffs = back_to_ints(coeffs)
    return InvariantConnection(lowest_terms(coeffs, 2 * dc * dg * di), LEVI_CIVITA, g.mode)


def curvature_bound(n: int, dc: int, da: int, tc: int, ta: int) -> int:
    """A bound on every entry, term and partial sum of :func:`curvature_terms`
    for an (n, n, n) bracket tensor c and operator stack a with
    max|c| <= tc and max|a| <= ta: a product sums n terms, so
    |dc a_i a_j| <= n dc ta**2 and the bracket term is at most n da tc ta."""
    return n * (2 * dc * ta * ta + da * tc * ta)


def curvature_terms(c: np.ndarray, dc: int, a: np.ndarray, da: int,
                    rows: slice, cols: slice) -> np.ndarray:
    """``R[i, j]`` for i in rows, j in cols, times da * da * dc, from the
    bracket tensor c over dc and the connection operators a over da.

    Runs on whatever arrays it is handed: object ints, their float64 lift
    or the float64 arrays of float mode. Each of its three terms is one
    :func:`slab_product`, n**3 memory for a slab of :func:`row_slabs`, and
    the same call on the same operands gives the same floats: so a single
    operator read off its slab, as :func:`curvature_operator` reads it in
    float mode, and the whole tensor agree bit for bit.
    """
    n = c.shape[0]
    # s[j] = a[j].T, the coefficient layout that an operator stack is a view of
    s = np.transpose(a, (0, 2, 1))
    # R[i, j] = prod[i, j] - back[i, j] - mixed[i, j] with prod[i, j] =
    # dc a[i] @ a[j], the transpose of dc s[j] @ s[i] (made as [j, m, i, r]),
    # back[i, j] = dc a[j] @ a[i] = prod[j, i] (made as [j, r, i, m] unless
    # rows and cols are the same) and mixed[i, j] = da times the operator of
    # [e_i, e_j], the transpose of da sum_l c[i, j, l] s[l] (made as
    # [i, j, m, r]): each scaled on its factor indexed by rows, and at most
    # three slabs live at once
    prod = np.transpose(slab_product(s[cols], np.transpose(s[rows], (1, 0, 2)) * dc), (2, 0, 3, 1))
    if rows.indices(n) == cols.indices(n):
        back = np.transpose(prod, (1, 0, 2, 3))
    else:
        back = np.transpose(slab_product(a[cols], np.transpose(a[rows], (1, 0, 2)) * dc),
                            (2, 0, 1, 3))
    r = prod - back
    r -= np.transpose(slab_product(c[rows, cols] * da, s), (0, 1, 3, 2))
    return r


def curvature_operator(g: MetricLieAlgebra, conn: InvariantConnection,
                       i: int, j: int) -> np.ndarray:
    """Matrix of R(e_i, e_j) = [D_i, D_j] - D_{[e_i, e_j]}."""
    c, dc = g.scaled_bracket
    a, da = conn.scaled_operators, conn.scaled[1]
    if g.mode == FLOAT:
        # read off the slab that holds row i, built as scaled_curvature builds it
        rows = next(s for s in row_slabs(g.dim) if i < s.stop)
        r = curvature_terms(c, dc, a, da, rows, slice(None))[i - rows.start, j]
    else:
        # an exact pair is the same computed alone; its 3 n**3 multiply-adds
        # are never lifted, being fewer than KERNEL_WORK_PER_ENTRY times the
        # 2 n**3 entries of c and a
        r = curvature_terms(c, dc, a, da, slice(i, i + 1), slice(j, j + 1))[0, 0]
    return from_scaled(r, da * da * dc)


def scaled_curvature(g: MetricLieAlgebra, conn: InvariantConnection) -> tuple[np.ndarray, int]:
    """The whole curvature tensor as (ints, den), see ``to_scaled``: the
    integers of :func:`curvature_terms`, the float64 tensor itself in float
    mode; built a slab at a time, so only the answer is n**4."""
    n = g.dim
    c, dc = g.scaled_bracket
    a, da = conn.scaled_operators, conn.scaled[1]
    # at most three products of n**5 multiply-adds each
    lifted = exact_floats([c, a], lambda tc, ta: curvature_bound(n, dc, da, tc, ta),
                          3 * n ** 5, n ** 4)
    c, a = lifted or (c, a)
    r = np.empty((n,) * 4, dtype=object if lifted else c.dtype)
    for rows in row_slabs(n):
        slab = curvature_terms(c, dc, a, da, rows, slice(None))
        r[rows] = back_to_ints(slab) if lifted else slab
    return r, da * da * dc


def curvature_tensor(g: MetricLieAlgebra, conn: InvariantConnection) -> np.ndarray:
    """All curvature operators at once: ``R[i, j]`` is the matrix of R(e_i, e_j)."""
    return from_scaled(*scaled_curvature(g, conn))


def _max_abs(ints: np.ndarray, den: int):
    """Largest magnitude in ints / den: exact, or a float in float mode."""
    top = np.max(np.abs(ints), initial=0)
    return top / den if ints.dtype == np.float64 else as_fraction(top) / den


def torsion_defect(g: MetricLieAlgebra, conn: InvariantConnection):
    """Largest component of D_x y - D_y x - [x, y] over basis pairs."""
    a, da = conn.scaled
    c, dc = g.scaled_bracket
    return _max_abs((a - np.transpose(a, (1, 0, 2))) * dc - c * da, da * dc)


def metric_defect(g: MetricLieAlgebra, conn: InvariantConnection,
                  theta: Optional[np.ndarray] = None):
    """Largest component of G A_i + A_i^T G - 2 theta_i G over basis directions;
    theta is the Lee covector of a Weyl connection, None for a metric one."""
    if theta is None:
        theta = zeros_array((g.dim,), g.mode)
    a, da = conn.scaled_operators, conn.scaled[1]
    (gram, dg), (t, d) = g.scaled_gram, to_scaled(theta)
    defect = ((int_matmul(gram, a) + int_matmul(np.transpose(a, (0, 2, 1)), gram)) * d
              - 2 * da * t[:, None, None] * gram)
    return _max_abs(defect, dg * d * da)
