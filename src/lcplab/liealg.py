"""Metric Lie algebras and their invariant connections.

Conventions, fixed once for the whole package:

* structure tensor ``c`` with ``[e_i, e_j] = sum_k c[i, j, k] e_k``;
* operators act on column coordinate vectors, so the matrix of ``ad_{e_i}``
  is ``c[i].T``;
* connection coefficient tensors follow the same layout as ``c``.

Each structure condition is one decision on the scaled-integer bracket:
subalgebra and ideal are one invariance test of the stacked ad operators
through :func:`linalg.restrict_operator`, unimodularity one zero test of
the whole trace vector.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import InputError
from .linalg import (
    Subspace,
    check_square_scale,
    exact_det,
    is_zero_matrix,
    residual_band,
    restrict_operator,
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
    check_mode,
    eye_array,
    from_scaled,
    int_matmul,
    int_tensordot,
    lowest_terms,
    to_float_array,
    to_scaled,
    zeros_array,
)

LEVI_CIVITA = "levi_civita"
WEYL = "weyl"


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """A Lie algebra with a chosen basis and a positive definite inner product."""

    bracket: np.ndarray  # (n, n, n)
    gram: np.ndarray  # (n, n)
    mode: Mode
    basis_names: tuple[str, ...]
    tol: TolerancePolicy

    @property
    def dim(self) -> int:
        return int(self.bracket.shape[0])

    @cached_property
    def scaled_bracket(self) -> tuple[np.ndarray, int]:
        """The bracket tensor as (ints, den), see ``to_scaled``."""
        return to_scaled(self.bracket)

    @cached_property
    def scaled_gram_inverse(self) -> tuple[np.ndarray, int]:
        """G^-1 as (ints, den), see ``linalg.scaled_inverse``."""
        return scaled_inverse(self.gram, self.mode)

    @cached_property
    def levi_civita(self) -> InvariantConnection:
        """The Levi-Civita connection, built once per algebra."""
        return levi_civita(self)

    def __repr__(self) -> str:
        return f"MetricLieAlgebra(dim={self.dim}, mode={self.mode})"


def bracket_table(n: int, entries: Mapping[tuple[int, int], Any], mode: Mode = EXACT) -> np.ndarray:
    """Structure tensor from a sparse table of brackets of basis vectors.

    ``entries[(i, j)]`` is the coordinate vector of ``[e_i, e_j]``, either a
    full length-n sequence or a dict {index: coefficient}; the antisymmetric
    counterpart is filled in automatically.
    """
    c = zeros_array((n, n, n), mode)
    for (i, j), vec in entries.items():
        if i == j:
            raise InputError("bracket of a basis vector with itself must be omitted")
        if isinstance(vec, Mapping):
            full = zeros_array((n,), mode)
            for k, val in vec.items():
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
    c = array_for_mode(bracket, mode)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise InputError("bracket tensor must have shape (n, n, n)")
    n = c.shape[0]
    g = eye_array(n, mode) if gram is None else array_for_mode(gram, mode)
    if g.shape != (n, n):
        raise InputError(f"gram matrix must have shape ({n}, {n})")
    check_square_scale(c, g)
    if basis_names is None:
        names = tuple(f"e{i}" for i in range(n))
    else:
        names = tuple(str(s) for s in basis_names)
        if len(names) != n:
            raise InputError(f"expected {n} basis names, got {len(names)}")
    alg = MetricLieAlgebra(c, g, mode, names, tol)
    if check:
        report = validate_algebra(alg)
        if not report.passed:
            raise InputError("invalid algebra data: " + "; ".join(report.failures()))
    return alg


def to_float_algebra(g: MetricLieAlgebra) -> MetricLieAlgebra:
    if g.mode == FLOAT:
        return g
    return MetricLieAlgebra(to_float_array(g.bracket), to_float_array(g.gram),
                            FLOAT, g.basis_names, g.tol)


def with_gram(g: MetricLieAlgebra, gram: Any) -> MetricLieAlgebra:
    new = array_for_mode(gram, g.mode)
    if new.shape != (g.dim, g.dim):
        raise InputError("replacement gram has the wrong shape")
    return MetricLieAlgebra(g.bracket, new, g.mode, g.basis_names, g.tol)


def direct_sum_algebra(a: MetricLieAlgebra, b: MetricLieAlgebra) -> MetricLieAlgebra:
    """Orthogonal direct sum of two metric Lie algebras."""
    if a.mode != b.mode:
        raise InputError("direct sum requires matching scalar modes")
    n1, n2 = a.dim, b.dim
    n = n1 + n2
    c = zeros_array((n, n, n), a.mode)
    c[:n1, :n1, :n1] = a.bracket
    c[n1:, n1:, n1:] = b.bracket
    g = zeros_array((n, n), a.mode)
    g[:n1, :n1] = a.gram
    g[n1:, n1:] = b.gram
    left = a.basis_names
    right = tuple(nm + "'" if nm in left else nm for nm in b.basis_names)
    return MetricLieAlgebra(c, g, a.mode, left + right, a.tol)


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
    gram, dg = to_scaled(g.gram)
    qinv, di = scaled_inverse(q, g.mode)
    # t[i, k, j] = the e_k component of [q_i, q_j]
    t = int_tensordot(int_tensordot(qi, c, axes=(1, 0)), qi, axes=(1, 1))
    full = int_tensordot(t, qinv, axes=(1, 0))
    # the upper triangle, mirrored: float output stays exactly antisymmetric
    iu, ju = np.triu_indices(g.dim, 1)
    new = np.zeros_like(full)
    new[iu, ju] = full[iu, ju]
    new[ju, iu] = -full[iu, ju]
    return MetricLieAlgebra(from_scaled(new, dc * dq * dq * di),
                            from_scaled(int_matmul(int_matmul(qi, gram), qi.T), dq * dq * dg),
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
    test, on the scaled bracket (a positive scale changes no invariant subspace)."""
    ad = int_tensordot(to_scaled(s.basis)[0], g.scaled_bracket[0], axes=(1, 0))
    return restrict_operator(np.transpose(ad, (0, 2, 1)), s.basis, g.mode, g.tol) is not None


def is_ideal(g: MetricLieAlgebra, s: Subspace) -> bool:
    """True when every ad_{e_i} preserves s, in one invariance test."""
    ad = np.transpose(g.scaled_bracket[0], (0, 2, 1))
    return restrict_operator(ad, s.basis, g.mode, g.tol) is not None


def is_unimodular(g: MetricLieAlgebra) -> bool:
    c = g.scaled_bracket[0]
    return is_zero_matrix(np.trace(c, axis1=1, axis2=2), g.mode, g.tol, scale=scale_of(c))


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

    def summary(self) -> str:
        if self.passed:
            return "valid metric Lie algebra"
        return "; ".join(self.failures())


def _is_positive_definite(gram: np.ndarray, mode: Mode, tol: TolerancePolicy) -> bool:
    n = gram.shape[0]
    if mode == EXACT:
        return all(exact_det(gram[:k, :k]) > 0 for k in range(1, n + 1))
    w = np.linalg.eigvalsh(np.asarray(gram, dtype=np.float64))
    top = float(np.max(np.abs(w))) if n else 0.0
    return bool(n == 0 or w[0] > tol.rank_tol * max(1.0, top))


def validate_algebra(g: MetricLieAlgebra) -> ValidationReport:
    n = g.dim
    # zero tests do not see a common positive scale, so exact ones run on ints
    c = g.scaled_bracket[0]
    sc = scale_of(c)
    sym = c + np.transpose(c, (1, 0, 2))  # sym[i, j] = c[i, j, :] + c[j, i, :]
    # t[i, j, k, m] = sum_l c[i, j, l] c[l, k, m], the m-th component of [[e_i, e_j], e_k]
    t = int_tensordot(c, c, axes=(2, 0))
    # total[i, j, k] = t[i, j, k] + t[j, k, i] + t[k, i, j]
    total = t + np.transpose(t, (2, 0, 1, 3)) + np.transpose(t, (1, 2, 0, 3))
    # the pairs i <= j and triples i < j < k, in lexicographic order
    pairs = np.array([(i, j) for i in range(n) for j in range(i, n)], dtype=np.intp).reshape(-1, 2)
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    anti = pairs[_nonzero_vectors(sym[tuple(pairs.T)], g.mode, g.tol, sc)]
    jac = triples[_nonzero_vectors(total[tuple(triples.T)], g.mode, g.tol, sc * sc)]
    gram = to_scaled(g.gram)[0]
    gram_sym = is_zero_matrix(gram - gram.T, g.mode, g.tol, scale=scale_of(g.gram))
    gram_pd = gram_sym and _is_positive_definite(g.gram, g.mode, g.tol)
    return ValidationReport(tuple(map(tuple, anti.tolist())), tuple(map(tuple, jac.tolist())),
                            gram_sym, gram_pd)


def _nonzero_vectors(a: np.ndarray, mode: Mode, tol: TolerancePolicy,
                     scale: float) -> np.ndarray:
    """Where the vectors along the last axis of ``a`` fail is_zero_matrix,
    as one reduction over that axis with the same comparison: a NaN entry
    fails it, as it does there, and an empty vector passes."""
    if mode == EXACT:
        return a.any(axis=-1).astype(bool)
    return ~(np.abs(a).max(axis=-1, initial=0.0) <= residual_band(tol) * max(1.0, scale))


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
    c, dc = g.scaled_bracket
    gram, dg = to_scaled(g.gram)
    ginv, di = g.scaled_gram_inverse
    b = int_tensordot(c, gram, axes=(2, 0))  # b[i,j,z] = <[e_i,e_j], e_z>
    # rhs[i, j, z] = b[i, j, z] + b[z, i, j] - b[j, z, i]
    rhs = b + np.transpose(b, (1, 2, 0)) - np.transpose(b, (2, 0, 1))
    coeffs = int_tensordot(rhs, ginv, axes=(2, 0))
    return InvariantConnection(lowest_terms(coeffs, 2 * dc * dg * di), LEVI_CIVITA, g.mode)


def _curvature(g: MetricLieAlgebra, conn: InvariantConnection,
               rows: slice, cols: slice) -> tuple[np.ndarray, int]:
    """``R[i, j]`` = R(e_i, e_j) = [D_i, D_j] - D_{[e_i, e_j]} for i in rows,
    j in cols, as (ints, den), see ``to_scaled``.

    Runs on the scaled form: integers over one denominator in exact mode,
    the float64 arrays themselves in float mode. Every pair is one matmul
    of the same operands whether it is computed alone or among all, so a
    single operator and the whole tensor agree bit for bit in float mode.
    """
    n = g.dim
    c, dc = g.scaled_bracket
    a, da = conn.scaled_operators, conn.scaled[1]
    # prod[i, j] = dc a[i] @ a[j], and mixed[i, j] = da times the operator of
    # [e_i, e_j]: each scaled on its smaller factor
    prod = int_matmul(a[rows, None] * dc, a[None, cols])
    back = prod if rows == cols else int_matmul(a[cols, None] * dc, a[None, rows])
    mixed = int_matmul(c[rows, cols, None, :] * da, a.reshape(n, n * n)).reshape(prod.shape)
    return prod - np.transpose(back, (1, 0, 2, 3)) - mixed, da * da * dc


def curvature_operator(g: MetricLieAlgebra, conn: InvariantConnection,
                       i: int, j: int) -> np.ndarray:
    """Matrix of R(e_i, e_j) = [D_i, D_j] - D_{[e_i, e_j]}."""
    r, den = _curvature(g, conn, slice(i, i + 1), slice(j, j + 1))
    return from_scaled(r[0, 0], den)


def scaled_curvature(g: MetricLieAlgebra, conn: InvariantConnection) -> tuple[np.ndarray, int]:
    """The whole curvature tensor as (ints, den), see ``to_scaled``."""
    return _curvature(g, conn, slice(None), slice(None))


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
    gram, t, d = to_scaled(g.gram, theta)
    defect = ((int_matmul(gram, a) + int_matmul(np.transpose(a, (0, 2, 1)), gram)) * d
              - 2 * da * t[:, None, None] * gram)
    return _max_abs(defect, d * d * da)
