"""Holonomy of the Levi-Civita connection and orthogonal decompositions.

The holonomy algebra of a left-invariant metric is the span of the
curvature operators, closed under commutator with the connection
operators. Splitting off the common kernel (the flat directions, kept as
one block) and then cutting the complement along eigenspaces of the
symmetric commutant yields the factors of the metric as an orthogonal
product; the factors are unique, pairwise inequivalent as holonomy
modules, and invariant under every connection operator.

One commutant and one eigensplit suffice. On the curved block the
symmetric commutant C is spanned by the projections onto the k curved
factors (Kostant 1955; Kobayashi and Nomizu I, ch. II), so dim C = k,
and an element of C with k eigenspaces has exactly the factors as its
eigenspaces.

In exact mode the splitting first bounds the holonomy dimension from
below by running the same closure modulo the prime
``CERTIFICATE_PRIME`` in int64 (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5). The Levi-Civita holonomy lies in so(g), so
when the bound reaches n(n-1)/2 the holonomy is so(g), proved exactly:
it has no common kernel and, for n >= 2, only scalar symmetric
operators commute with it, so the answer is one irreducible factor
spanning everything. The exact closure and the commutant are then
skipped. A bound below n(n-1)/2, whether the holonomy is smaller or the
prime is unlucky, falls back to the exact closure on the same seeds; it
can never give a wrong answer. The float lane always closes.

Invariance questions go through :func:`linalg.restrict_operator` on a
stack of operators; orthogonality of the factors and the cross terms of
a reducing pair are each one zero test of a whole tensor.
"""
from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericalAmbiguityError, TheoremViolationError
from .liealg import (
    InvariantConnection,
    MetricLieAlgebra,
    LEVI_CIVITA,
    is_subalgebra,
    scaled_curvature,
    to_float_algebra,
)
from .linalg import (
    EigenSplit,
    Subspace,
    canonical_rows,
    closure_dim_mod_p,
    full_subspace,
    is_zero_matrix,
    matrix_rank,
    orthocomplement,
    rank_and_nullspace,
    restrict_operator,
    restricted_gram,
    scale_of,
    scaled_inverse,
    selfadjoint_eigensplit,
    span_closure,
    subspace_sum,
    support_indices,
)
from .scalars import (
    EXACT,
    Mode,
    TolerancePolicy,
    int_commutator,
    int_matmul,
    int_tensordot,
    to_scaled,
)


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """A space of operators on coordinate space, given by a matrix basis."""

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    mode: Mode

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"OperatorAlgebra(dim={self.dim}, ambient={self.ambient_dim}, mode={self.mode})"


# A prime below 2**25 (it is 2**25 - 39). With entries reduced below it, a
# product of two n x n matrices sums n terms below 2**50 in size. The
# closure step adds two such products, 2n terms, which int64 holds for
# n < 2**12.
CERTIFICATE_PRIME = 33554393


def _closure_inputs(g: MetricLieAlgebra,
                    conn: InvariantConnection) -> tuple[list[np.ndarray], np.ndarray]:
    """The nonzero curvature operators and the stack of connection operators,
    in exact mode as ints: each times its stack's common denominator, a
    positive scale that changes no span, so the closure runs on ints and
    the holonomy basis it keeps is ints as well."""
    n = g.dim
    sc = scale_of(g.bracket, g.gram)
    curv = scaled_curvature(g, conn)[0]
    seeds = [curv[i, j] for i in range(n) for j in range(i + 1, n)
             if not is_zero_matrix(curv[i, j], g.mode, g.tol, scale=sc * sc)]
    return seeds, conn.scaled_operators


def _closed_holonomy(g: MetricLieAlgebra, conn: InvariantConnection,
                     seeds: list[np.ndarray], nabla: np.ndarray) -> OperatorAlgebra:
    n = g.dim
    if not seeds:
        return OperatorAlgebra(n, (), g.mode)
    # the Levi-Civita holonomy lies in so(g)
    max_dim = n * (n - 1) // 2 if conn.kind == LEVI_CIVITA else None

    def step(m: np.ndarray) -> list[np.ndarray]:
        # [a, m] for each a in nabla, in order, as one stacked product
        return list(int_commutator(nabla, m))
    span = span_closure(seeds, step, g.mode, g.tol, max_dim)
    mats = tuple(span.basis[i].reshape(n, n) for i in range(span.dim))
    return OperatorAlgebra(n, mats, g.mode)


def holonomy_algebra(g: MetricLieAlgebra,
                     conn: Optional[InvariantConnection] = None) -> OperatorAlgebra:
    """Span of curvature operators, closed under bracketing with the connection."""
    if conn is None:
        conn = g.levi_civita
    return _closed_holonomy(g, conn, *_closure_inputs(g, conn))


def _holonomy_dim_mod_p(g: MetricLieAlgebra, seeds: list[np.ndarray],
                        nabla: np.ndarray) -> int:
    """A lower bound for the dimension of the Levi-Civita holonomy.

    ``seeds`` and ``nabla`` are the integer matrices of
    :func:`_closure_inputs` in exact mode. The closure runs on G h in place
    of h: since G a = -a^T G for each a = D_z, G times the holonomy is the
    closure of the G R(x, y) under s -> a^T s + s a. Those are skew, so
    each is kept as its strict upper triangle, dim so(g) = n(n-1)/2 wide.

    Let V be that closure over Q. The lattice of integer matrices in V is
    saturated of rank dim V, so it reduces mod p to a GF(p) space of the
    same dimension. That space holds the reduced seeds, and since the step
    has integer coefficients it is closed under the reduced step. The
    closure of the reduced seeds over GF(p) therefore has dimension at
    most dim V; an unlucky prime only makes it smaller.
    """
    if not seeds:
        return 0
    n = g.dim
    p = CERTIFICATE_PRIME
    iu, ju = np.triu_indices(n, 1)
    gram = (to_scaled(g.gram)[0] % p).astype(np.int64)
    ops = (nabla % p).astype(np.int64)
    ops_t = ops.transpose(0, 2, 1)

    def step(u: np.ndarray) -> list[np.ndarray]:
        s = np.zeros((n, n), dtype=np.int64)
        s[iu, ju] = u
        s[ju, iu] = -u
        return list(((ops_t @ s + s @ ops) % p)[:, iu, ju])
    upper = [((gram @ (r % p).astype(np.int64)) % p)[iu, ju] for r in seeds]
    return closure_dim_mod_p(upper, step, p)


def _gram_inverse_basis(ginv: np.ndarray, sign: int) -> np.ndarray:
    """The matrices G^-1 (E_ij + sign E_ji), i < j, on the scaled form of G^-1;
    for sign +1 also G^-1 E_ii.

    Each is zero but in two columns: column j is column i of G^-1, and
    column i is sign times column j of G^-1.
    """
    n = ginv.shape[0]
    iu, ju = np.triu_indices(n, 0 if sign > 0 else 1)
    k = np.arange(len(iu))
    mats = np.zeros((len(iu), n, n), dtype=ginv.dtype)
    mats[k, :, ju] = ginv[:, iu].T
    mats[k, :, iu] = sign * ginv[:, ju].T
    return mats


def _orthogonal_algebra(g: MetricLieAlgebra) -> OperatorAlgebra:
    """so(g), with basis G^-1 (E_ij - E_ji) for i < j."""
    return OperatorAlgebra(g.dim, tuple(_gram_inverse_basis(g.scaled_gram_inverse[0], -1)),
                           g.mode)


def common_kernel(ops: Sequence[np.ndarray], ambient_dim: int, mode: Mode,
                  tol: TolerancePolicy) -> Subspace:
    if not ops:
        return full_subspace(ambient_dim, mode)
    return rank_and_nullspace(np.concatenate(list(ops), axis=0), mode, tol)[1]


# ---------------------------------------------------------------------------
# symmetric commutant


def symmetric_commutant(ops: Sequence[np.ndarray], gram: np.ndarray, mode: Mode,
                        tol: TolerancePolicy) -> list[np.ndarray]:
    """Basis of the gram-self-adjoint operators commuting with every op.

    Starts from all self-adjoint operators G^-1 (E_ij + E_ji), i <= j, and
    imposes one commutation constraint at a time, so the working basis only
    ever shrinks; the identity always survives. The work runs on the
    scaled form: each op, rational or any nonzero integer multiple of the
    operator, is scaled to integers and divided by the gcd of its entries;
    each constraint's nullspace comes as primitive integer rows. That
    changes no span, and the elements come back on that form: Python ints
    in exact mode.
    """
    return _commutant(ops, scaled_inverse(gram, mode)[0], mode, tol)


def _commutant(ops: Sequence[np.ndarray], ginv: np.ndarray, mode: Mode,
               tol: TolerancePolicy) -> list[np.ndarray]:
    """symmetric_commutant from G^-1 on the scaled form.

    Float mode first imposes the constraint of one generic element of the
    operators' span, the combination sum (i + 1) a_i. The commutant of a
    set equals that of the set plus any element of its span, so the answer
    is the same subspace. An SVD costs the same at any rank, and the
    commutant of one generic element is already small, so the working
    basis shrinks at once and the remaining constraints are narrow. Exact
    mode keeps the incremental order: fraction-free elimination grows
    with the rank, and a full-rank first constraint costs more than the
    small ones it saves.
    """
    work = _gram_inverse_basis(ginv, 1)
    n = ginv.shape[0]
    if mode != EXACT and len(ops) > 1:
        ops = [np.tensordot(np.arange(1.0, len(ops) + 1), np.asarray(ops), axes=1), *ops]
    for a in ops:
        if len(work) <= 1:
            break
        a = to_scaled(a)[0]
        if mode == EXACT:  # smaller entries, the same constraints
            a = a // (math.gcd(*a.reshape(-1).tolist()) or 1)
        # column j is the commutator of working basis matrix j with a
        k = int_commutator(work, a).reshape(len(work), -1).T
        # a commutator that is zero at the scale of its inputs is no
        # constraint at all; without this cutoff pure roundoff noise would
        # read as a rank-one condition and eat a commutant direction
        if is_zero_matrix(k, mode, tol, scale=scale_of(a) * scale_of(work)):
            continue
        null = rank_and_nullspace(k, mode, tol)[1].basis
        if len(null) == len(work):
            continue
        work = int_matmul(null, work.reshape(len(work), -1)).reshape(-1, n, n)
    return list(work)


def nabla_commutant(g: MetricLieAlgebra,
                    conn: Optional[InvariantConnection] = None) -> list[np.ndarray]:
    if conn is None:
        conn = g.levi_civita
    return _commutant(list(conn.scaled_operators), g.scaled_gram_inverse[0], g.mode, g.tol)


def _is_scalar_matrix(p: np.ndarray, mode: Mode, tol: TolerancePolicy) -> bool:
    # no mean of the diagonal: dividing Python ints gives a rounded float
    eye = np.identity(p.shape[0], dtype=p.dtype)
    return is_zero_matrix(p - p[0, 0] * eye, mode, tol, scale=scale_of(p))


# ---------------------------------------------------------------------------
# splitting along one eigensplit


class _PromoteToFloat(Exception):
    """Internal signal: an eigenvalue left the rationals, redo in float."""


# random combinations of the commutant basis tried after the basis itself
EXTRA_ATTEMPTS = 8
# their coefficients: distinct, from a range wide enough that k factor
# projections, or multiples of them as the exact commutant basis often
# is, combine to k distinct eigenvalues in all but rare draws
COEFFICIENTS = range(-2**16, 2**16 + 1)


def _candidates(comm: list[np.ndarray], mode: Mode, tol: TolerancePolicy,
                rng: random.Random):
    for p in comm:
        if not _is_scalar_matrix(p, mode, tol):
            yield p
    for _ in range(EXTRA_ATTEMPTS):
        combo = None
        for c, p in zip(rng.sample(COEFFICIENTS, len(comm)), comm):
            term = c * p
            combo = term if combo is None else combo + term
        if combo is not None and not _is_scalar_matrix(combo, mode, tol):
            yield combo


def _first_eigensplit(comm: list[np.ndarray], gram: np.ndarray, mode: Mode,
                      tol: TolerancePolicy, rng: random.Random, stage: str,
                      parts: int) -> EigenSplit:
    """Eigensplit of the first candidate that has ``parts`` or more eigenspaces.

    When no candidate has that many, raises the last ambiguity met on the
    way, or a fresh one if there was none; its message starts with
    ``stage``, the name of the step that needed the split.
    """
    ambiguity: Optional[NumericalAmbiguityError] = None
    for cand in _candidates(comm, mode, tol, rng):
        try:
            split = selfadjoint_eigensplit(cand, gram, mode, tol)
        except NumericalAmbiguityError as err:
            ambiguity = err
            continue
        if len(split.pairs) >= parts:
            return split
    if ambiguity is not None:
        raise NumericalAmbiguityError(f"{stage}: {ambiguity}",
                                      suggestion=ambiguity.suggestion) from ambiguity
    raise NumericalAmbiguityError(
        f"{stage}: commutant has dimension {len(comm)} but no candidate produced"
        f" {parts} stable eigenspaces",
        suggestion="rerun with a different seed or loosen eigen_cluster_tol",
    )


@dataclass(frozen=True, eq=False)
class DeRhamSplitting:
    """Orthogonal factors of the metric: one flat block, then irreducible ones."""

    algebra: MetricLieAlgebra  # the input in the split's mode: its float twin if promoted
    factors: tuple[Subspace, ...]
    factor_is_flat: tuple[bool, ...]
    holonomy: OperatorAlgebra
    connection: InvariantConnection
    mode: Mode
    promoted_to_float: bool

    @property
    def flat_factor(self) -> Optional[Subspace]:
        return self.factors[0] if self.factor_is_flat and self.factor_is_flat[0] else None

    @property
    def holonomy_dim(self) -> int:
        return self.holonomy.dim

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def __repr__(self) -> str:
        return (f"DeRhamSplitting(dims={self.factor_dims}, flat={self.factor_is_flat},"
                f" hol_dim={self.holonomy_dim}, mode={self.mode})")


def _sort_key(factor: Subspace, mode: Mode, tol: TolerancePolicy):
    rows = canonical_rows(factor.basis, mode, tol)
    supp = support_indices(rows, mode, tol)
    if mode == EXACT:
        body = tuple(tuple(x for x in row) for row in rows)
    else:
        body = tuple(tuple(round(float(x), 6) for x in row) for row in rows)
    return (-factor.dim, supp, body)


def _verify_splitting(g: MetricLieAlgebra, factors: list[Subspace], hol: OperatorAlgebra,
                      conn: InvariantConnection) -> None:
    n = g.dim
    total = sum(f.dim for f in factors)
    stacked = np.concatenate([f.basis for f in factors], axis=0)
    if total != n or matrix_rank(stacked, g.mode, g.tol) != n:
        raise TheoremViolationError("factors do not span the whole algebra")
    # one gram matrix of all factor bases; its blocks off the diagonal must vanish
    label = np.repeat(np.arange(len(factors)), [f.dim for f in factors])
    cross = restricted_gram(stacked, g.gram)[label[:, None] != label[None, :]]
    if not is_zero_matrix(cross, g.mode, g.tol, scale=scale_of(g.gram)):
        raise TheoremViolationError("factors are not pairwise orthogonal")
    # every operator preserves a factor that is the whole space
    for f in (f for f in factors if f.dim < n):
        if hol.dim and restrict_operator(np.stack(hol.basis), f.basis, g.mode, g.tol) is None:
            raise TheoremViolationError("factor is not holonomy invariant")
        if restrict_operator(conn.scaled_operators, f.basis, g.mode, g.tol) is None:
            raise TheoremViolationError(
                "holonomy invariant factor is not connection invariant")


def de_rham_splitting(g: MetricLieAlgebra, seed: int = 0) -> DeRhamSplitting:
    """Factor the metric algebra into flat and irreducible orthogonal blocks.

    Exact inputs stay exact as long as every eigenvalue met along the way
    is rational; otherwise the whole computation is redone in floats and
    the result is flagged as promoted.
    """
    try:
        return _de_rham_splitting_in_mode(g, seed, promoted=False)
    except _PromoteToFloat:
        return _de_rham_splitting_in_mode(to_float_algebra(g), seed, promoted=True)


def _de_rham_splitting_in_mode(g: MetricLieAlgebra, seed: int, promoted: bool) -> DeRhamSplitting:
    n = g.dim
    conn = g.levi_civita
    seeds, nabla = _closure_inputs(g, conn)
    if g.mode == EXACT and n >= 2 and _holonomy_dim_mod_p(g, seeds, nabla) == n * (n - 1) // 2:
        # hol = so(g), certified: it has no common kernel, and for n >= 2
        # its symmetric commutant is the scalars, so one irreducible factor
        hol = _orthogonal_algebra(g)
        factors, flags = [full_subspace(n, g.mode)], [False]
    else:
        hol = _closed_holonomy(g, conn, seeds, nabla)
        factors, flags = _factors(g, hol, random.Random(seed))
    _verify_splitting(g, factors, hol, conn)
    return DeRhamSplitting(g, tuple(factors), tuple(flags), hol, conn, g.mode, promoted)


def _factors(g: MetricLieAlgebra, hol: OperatorAlgebra,
             rng: random.Random) -> tuple[list[Subspace], list[bool]]:
    """The flat block, if any, then the irreducible blocks in canonical order.

    The curved factors are the eigenspaces of the first candidate in the
    commutant C of the curved block with dim C of them: were one of those
    eigenspaces reducible, its projections would make dim C larger.
    """
    n = g.dim
    flat = common_kernel(hol.basis, n, g.mode, g.tol)
    flats = [flat] if flat.dim else []
    curved: list[Subspace] = []
    if flat.dim < n:
        w = orthocomplement(flat, g.gram, g.tol)
        restricted = restrict_operator(np.stack(hol.basis), w.basis, g.mode, g.tol)
        if restricted is None:
            raise TheoremViolationError("holonomy does not preserve the curved block")
        ops = restricted[0]  # a positive multiple of the stack: the same commutant
        gram = restricted_gram(w.basis, g.gram)
        comm = symmetric_commutant(ops, gram, g.mode, g.tol)
        curved = [w]
        if len(comm) > 1:
            split = _first_eigensplit(comm, gram, g.mode, g.tol, rng,
                                      "de Rham splitting", len(comm))
            if split.promoted_to_float:
                raise _PromoteToFloat()
            for _, eig in split.pairs:
                if restrict_operator(ops, eig.basis, g.mode, g.tol) is None:
                    raise TheoremViolationError(
                        "eigenspace of a commutant element is not invariant under the operators")
            curved = sorted((Subspace(n, eig.basis @ w.basis, g.mode) for _, eig in split.pairs),
                            key=lambda f: _sort_key(f, g.mode, g.tol))
    return flats + curved, [True] * len(flats) + [False] * len(curved)


def verify_factor_subalgebras(g: MetricLieAlgebra, splitting: DeRhamSplitting,
                              strict: bool = True) -> list[bool]:
    """Check that every factor is closed under the bracket of ``splitting.algebra``."""
    out = []
    for f in splitting.factors:
        ok = is_subalgebra(splitting.algebra, f)
        if strict and not ok:
            raise TheoremViolationError("a metric factor is not a subalgebra")
        out.append(ok)
    return out


# ---------------------------------------------------------------------------
# reducing pairs


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the orthogonal-pair test, one flag per condition."""

    orthogonal: bool
    complementary: bool
    s1_subalgebra: bool
    s2_subalgebra: bool
    cross_s1: bool  # <[x1, x2], x1> vanishes for x1 in S1, x2 in S2
    cross_s2: bool  # <[x1, x2], x2> vanishes for x1 in S1, x2 in S2

    @property
    def passed(self) -> bool:
        return all(astuple(self))


@dataclass(frozen=True, eq=False)
class ReducingPair:
    s1: Subspace
    s2: Subspace
    mode: Mode


def _cross_vanishes(g: MetricLieAlgebra, linear_rows: np.ndarray,
                    quad_rows: np.ndarray) -> bool:
    """True when <[a, y], y> = 0 for all a in the linear span, y in the quadratic span.

    The form is quadratic in y, so vanishing on basis vectors and pairwise
    sums is equivalent to vanishing identically; both are covered by the
    polarized values below.
    """
    sc = scale_of(g.bracket, g.gram)
    a, y, gram, _ = to_scaled(linear_rows, quad_rows, g.gram)
    # br[a, k, i] = the k-th component of [a, y_i]
    br = int_tensordot(int_tensordot(a, g.scaled_bracket[0], axes=(1, 0)), y, axes=(1, 1))
    # val[a, i, j] = <[a, y_i], y_j>, then symmetrised in i, j
    val = int_matmul(np.transpose(br, (0, 2, 1)), int_matmul(gram, y.T))
    return is_zero_matrix(val + np.transpose(val, (0, 2, 1)), g.mode, g.tol, scale=sc * sc)


def check_reducing_pair(g: MetricLieAlgebra, s1: Subspace, s2: Subspace) -> ConditionReport:
    if s1.mode != g.mode or s2.mode != g.mode:
        raise InputError("pair and algebra must use the same scalar mode")
    orthogonal = is_zero_matrix(s1.basis @ g.gram @ s2.basis.T, g.mode, g.tol,
                                scale=scale_of(g.gram))
    stacked = np.concatenate([s1.basis, s2.basis], axis=0)
    complementary = (s1.dim + s2.dim == g.dim
                     and (stacked.shape[0] == 0
                          or matrix_rank(stacked, g.mode, g.tol) == g.dim))
    return ConditionReport(
        orthogonal=orthogonal,
        complementary=complementary,
        s1_subalgebra=is_subalgebra(g, s1),
        s2_subalgebra=is_subalgebra(g, s2),
        cross_s1=_cross_vanishes(g, s2.basis, s1.basis),
        cross_s2=_cross_vanishes(g, s1.basis, s2.basis),
    )


def reducibility_witness(g: MetricLieAlgebra, seed: int = 0,
                         splitting: Optional[DeRhamSplitting] = None,
                         ) -> Optional[ReducingPair]:
    """An orthogonal reducing pair when the metric splits, else None.

    With two or more factors the first factor against the rest is such a
    pair. A single flat block of dimension at least two is cut along an
    eigensplit of the self-adjoint operators commuting with the connection;
    those cuts are connection invariant, which is enough for the pair
    conditions. A splitting computed earlier for the same algebra and seed
    may be passed in to avoid recomputing it.
    """
    if splitting is None:
        splitting = de_rham_splitting(g, seed=seed)
    gg = splitting.algebra
    if len(splitting.factors) >= 2:
        s1 = splitting.factors[0]
        s2 = subspace_sum(splitting.factors[1:], gg.tol)
        return ReducingPair(s1, s2, splitting.mode)
    if not splitting.factor_is_flat[0] or g.dim < 2:
        return None
    comm = nabla_commutant(gg, splitting.connection)
    # a flat block of dimension >= 2 always splits; when no candidate gives
    # a clear eigen-gap the NumericalAmbiguityError says so (exit 3)
    split = _first_eigensplit(comm, gg.gram, gg.mode, gg.tol, random.Random(seed),
                              "flat reducing pair", 2)
    h = to_float_algebra(gg) if split.promoted_to_float else gg
    s1 = split.pairs[0][1]
    s2 = subspace_sum([p for _, p in split.pairs[1:]], h.tol)
    if not check_reducing_pair(h, s1, s2).passed:
        raise TheoremViolationError(
            "connection-invariant orthogonal split fails the pair conditions")
    return ReducingPair(s1, s2, h.mode)
