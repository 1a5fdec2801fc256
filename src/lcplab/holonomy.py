"""Holonomy of the Levi-Civita connection and orthogonal decompositions.

The holonomy algebra hol of a left-invariant metric is the span of the
curvature operators R(x, y), closed under commutator with the connection
operators D_z. The metric is an orthogonal product of one flat block,
the common kernel of hol, and irreducible curved factors; the factors are
unique, pairwise inequivalent as holonomy modules, and invariant under
every connection operator.

The split does not need hol closed; it comes first, from the seeds (the
nonzero R(e_i, e_j)) and the D_z, in one code path for both lanes:

(a) The flat factor, ker(hol), is the largest subspace that every seed
    kills and every D_z preserves. ker(hol) is one such subspace: since
    hol is stable under [D_z, .], h D_z v = D_z h v - [D_z, h] v = 0 for v
    in it. And [D_z, h] kills every D_z-invariant subspace that h kills,
    so the whole closure kills each of them. A fixed-point iteration on
    R^n finds it: the common kernel of the seeds, shrunk until the D_z
    preserve it, a test :func:`linalg.is_invariant` decides. In
    float mode a pass removes only directions whose images leave the
    kernel at the scale of the D_z; when none does, the kernel stands.
(b) On the curved block W, the orthocomplement of the flat factor, the
    symmetric commutant C of hol is spanned by the projections onto the k
    curved factors (Kostant 1955; Kobayashi and Nomizu I, ch. II). The
    factors are D_z-invariant, so those projections commute with every
    D_z, and C is also the commutant of hol and the D_z, which is that of
    the seeds and the D_z: an operator commuting with D_z and m commutes
    with [D_z, m]. So dim C = k, and an element of C with k eigenspaces
    has exactly the factors as its eigenspaces: one commutant and one
    eigensplit suffice. The seeds and the D_z are skew for the metric, so
    C is found among symmetric matrices S: w = G^-1 S in exact mode, and
    w = L^-T S L^T for G = L L^T in float mode, where the float lane starts
    from the eigenspaces of one generic operator (see :func:`_commutant`).
    Either way the constraint [w, a] is symmetric, and its upper triangle,
    n(n+1)/2 rows, is all of it.
(c) The curvature of an orthogonal product is the sum of the factors'
    curvatures, so hol is the direct sum of its restrictions to the
    curved factors, each zero off its own factor. On a factor V it is the
    closure of the restricted seeds under the restricted D_z, inside
    so(V): a span closure dim(V)^2 wide that stops at dim so(V). It first
    expands each kept matrix under two fixed integer combinations of the
    D_z only, the closure front of :func:`linalg.span_closure`; those
    images lie in hol, so reaching dim so(V) proves hol = so(V), and only
    a front that stalls below it goes on to the images under each D_z.
    The restrictions that close it are the guard's invariance test as
    well.

In exact mode, after (a), a lower bound for the holonomy dimension on
W, of dimension m, comes from the closure of the restricted seeds under
the front alone, modulo the prime ``CERTIFICATE_PRIME`` on the blocked
GF(p) basis of :mod:`lcplab.linalg` (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5), which lies inside
the holonomy on W mod p. That holonomy lies in so(W), so a bound of
m(m-1)/2 proves it is so(W): so(W) acts irreducibly on W for m >= 2 and
the holonomy kills the flat factor, so W is the one curved factor, and
the rest of (b) and (c) is skipped. The bound only picks the route:
below m(m-1)/2, because the holonomy is smaller or the prime or the
front unlucky, (b) and (c) run on the same restricted stacks, whose
report is the same, so it can never give a wrong answer.

Invariance questions go through :func:`linalg.is_invariant` on a stack
of operators, and :func:`linalg.restrict_operator` when the restricted
matrices are needed; orthogonality of the factors and the cross terms of
a reducing pair are each one zero test of a whole tensor.
"""
from __future__ import annotations

import functools
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
    curvature_bound,
    curvature_terms,
    is_subalgebra,
    row_slabs,
    to_float_algebra,
)
from .linalg import (
    MODP_PANEL,
    EigenSplit,
    Subspace,
    canonical_rows,
    closure_dim_mod_p,
    closure_front,
    full_subspace,
    is_invariant,
    is_zero_matrix,
    matmul_mod,
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
    back_to_ints,
    exact_floats,
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


# The largest prime below 2**20, the bound of the GF(p) engine of
# :mod:`lcplab.linalg`: residues are below 2**20 and a product of two
# below 2**40, so a float64 sum of at most 2**13 products is an exact
# integer below 2**53, and every product there splits a longer sum into
# chunks of at most 2**13 terms.
CERTIFICATE_PRIME = 1048573


@functools.lru_cache(maxsize=64)
def _upper_indices(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k), built once per n and k and read-only."""
    iu, ju = np.triu_indices(n, k)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _closure_inputs(g: MetricLieAlgebra,
                    conn: InvariantConnection) -> tuple[list[np.ndarray], np.ndarray]:
    """The nonzero curvature operators and the stack of connection operators,
    in exact mode as ints: each times its stack's common denominator, a
    positive scale that changes no span, so the closure runs on ints and
    the holonomy basis it keeps is ints as well.

    The pairs i < j come a slab of rows at a time, in order, from the slabs
    :func:`liealg.scaled_curvature` builds, and each slab keeps only its
    nonzero ones, so the seeds equal that tensor's entries and no n**4
    tensor is built."""
    n = g.dim
    c, dc = g.scaled_bracket
    sc = scale_of(c, g.scaled_gram[0])
    a, da = conn.scaled_operators, conn.scaled[1]
    # at most three products of n**5 multiply-adds each; the seeds kept are converted
    lifted = exact_floats([c, a], lambda tc, ta: curvature_bound(n, dc, da, tc, ta),
                          3 * n ** 5, n ** 4 // 2)
    c, a = lifted or (c, a)
    iu, ju = _upper_indices(n, 1)
    seeds: list[np.ndarray] = []
    for rows in row_slabs(n):
        lo, hi = np.searchsorted(iu, (rows.start, rows.stop))
        pairs = curvature_terms(c, dc, a, da, rows)[iu[lo:hi] - rows.start, ju[lo:hi]]
        kept = pairs[~is_zero_matrix(pairs, g.mode, g.tol, scale=sc * sc, axis=(1, 2))]
        seeds.extend(back_to_ints(kept) if lifted else kept)
    return seeds, conn.scaled_operators


def holonomy_algebra(g: MetricLieAlgebra,
                     conn: Optional[InvariantConnection] = None) -> OperatorAlgebra:
    """Span of curvature operators, closed under bracketing with the connection."""
    if conn is None:
        conn = g.levi_civita
    n = g.dim
    # the Levi-Civita holonomy lies in so(g)
    max_dim = n * (n - 1) // 2 if conn.kind == LEVI_CIVITA else None
    seeds, nabla = _closure_inputs(g, conn)
    mats = span_closure(seeds, nabla, int_commutator, g.mode, g.tol, max_dim)
    return OperatorAlgebra(n, tuple(mats), g.mode)


def _holonomy_dim_mod_p(gram: np.ndarray, seeds: Sequence[np.ndarray],
                        nabla: np.ndarray) -> int:
    """A lower bound for the dimension of the Levi-Civita holonomy on a
    block W that the seeds and the connection operators preserve.

    ``gram`` is W's Gram matrix G and ``seeds`` and ``nabla`` the stacks on
    W, integer matrices as :func:`linalg.restricted_gram` and
    :func:`linalg.restrict_operator` give them. The closure runs on G h in
    place of h: since G a = -a^T G for each a = D_z, G times the holonomy
    is the closure of the G R(x, y) under s -> a^T s + s a. Those are
    skew, so each is kept as its strict upper triangle, m(m-1)/2 wide.

    Let V be that closure over Q. The lattice of integer matrices in V is
    saturated of rank dim V, so it reduces mod p to a GF(p) space of the
    same dimension. That space holds the reduced seeds, and since the step
    has integer coefficients it is closed under the reduced step, and so
    under the step of any integer combination of the D_z. The closure of
    the reduced seeds over GF(p) under the two combinations of
    :func:`linalg.closure_front` alone therefore lies inside V mod p, and
    its dimension is at most dim V; an unlucky prime or an unlucky front
    only makes it smaller.

    The residues are int64 and every product is a float64 one under the
    bound of :func:`linalg.matmul_mod`: G times a slab of seeds side by
    side, and s a for a slab of rows and both operators of the front
    side by side.
    """
    if not len(seeds):
        return 0
    m = gram.shape[0]
    p = CERTIFICATE_PRIME
    iu, ju = _upper_indices(m, 1)
    gram = (gram % p).astype(np.int64)
    front = closure_front((nabla % p).astype(np.int64)) % p

    def upper(slab: np.ndarray) -> np.ndarray:
        # the strict upper triangles of G h for the seeds h of a slab
        h = (np.asarray(slab, dtype=object) % p).astype(np.int64)
        gh = matmul_mod(gram, h.transpose(1, 0, 2).reshape(m, -1), p)
        return gh.reshape(m, len(slab), m).transpose(1, 0, 2)[:, iu, ju]

    def images(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # a^T s + s a = t - t^T for t = s a, as s is skew; kept-row-major
        s = np.zeros((len(rows), m, m), dtype=np.int64)
        s[:, iu, ju] = rows
        s[:, ju, iu] = -rows
        t = matmul_mod(s.reshape(-1, m), stack.transpose(1, 0, 2).reshape(m, -1), p)
        t = t.reshape(len(rows), m, len(stack), m).transpose(0, 2, 1, 3)
        return ((t[:, :, iu, ju] - t[:, :, ju, iu]) % p).reshape(-1, len(iu))
    # MODP_PANEL seeds at a time, which bounds the memory of their products
    rows = [upper(seeds[s:s + MODP_PANEL]) for s in range(0, len(seeds), MODP_PANEL)]
    return closure_dim_mod_p(np.concatenate(rows), front, images, p)


def _so_basis(w: Subspace, gram: np.ndarray) -> tuple[np.ndarray, ...]:
    """so(W) on the algebra, in ints: x -> w_i <w_j, x> - w_j <w_i, x>, i < j,
    for the rows w_i of W's basis B. Each is B^T E, where E is zero but for
    row i, row j of B G, and row j, minus row i of B G. When W is the whole
    algebra, B is a multiple of the identity and E is enough."""
    b, gm, _ = to_scaled(w.basis, gram)
    bg = int_matmul(b, gm)
    iu, ju = _upper_indices(w.dim, 1)
    k = np.arange(len(iu))
    mats = np.zeros((len(iu), w.dim, w.ambient_dim), dtype=bg.dtype)
    mats[k, iu] = bg[ju]
    mats[k, ju] = -bg[iu]
    return tuple(mats if w.dim == w.ambient_dim else int_matmul(b.T, mats))


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

    Every op must be gram-skew, G a = -a^T G, as curvature operators,
    holonomy elements and the Levi-Civita connection operators are: the
    constraint imposed is that of a skew operator (see :func:`_commutant`),
    and for any other op the answer is wrong. The work runs on the scaled
    form: each op, rational or any nonzero integer multiple of the
    operator, is scaled to integers and divided by the gcd of its entries;
    each constraint's nullspace comes as primitive integer rows. That
    changes no span, and the elements come back on that form: Python ints
    in exact mode. In float mode a gram that is not positive definite
    raises ``np.linalg.LinAlgError``.
    """
    return _commutant(ops, gram, mode, tol)


def _symmetric_basis(n: int, dtype) -> np.ndarray:
    """The symmetric matrices E_ii, then E_ij + E_ji, i < j, row by row."""
    iu, ju = _upper_indices(n)
    mats = np.zeros((len(iu), n, n), dtype=dtype)
    k = np.arange(len(iu))
    mats[k, iu, ju] = 1
    mats[k, ju, iu] = 1
    return mats


# The float commutant starts from the eigenvalue groups of M = A^T A for
# one generic skew A (see _commutant): eigenvalues of M closer than
# merge_band(tol) * ||M|| share a group. The band is SPECTRAL_MARGIN times
# the larger of eps / rank_tol and rank_tol:
# - eigh gives the invariant subspace of a group whose gap to the rest
#   exceeds the band to about eps * ||M|| / gap <= rank_tol / SPECTRAL_MARGIN,
#   so every commutant element lies in the start to a thousandth of the
#   rank cut;
# - two rotation speeds of A that the rank cut cannot tell apart differ
#   in M by a few rank_tol * ||M||, so the start never separates what the
#   constraint of A would keep together.
SPECTRAL_MARGIN = 1e3


def merge_band(tol: TolerancePolicy) -> float:
    """The eigenvalue gap, relative to ||M||, at or below which the float
    commutant's start merges two eigenspaces of M."""
    return SPECTRAL_MARGIN * max(float(np.finfo(np.float64).eps) / tol.rank_tol, tol.rank_tol)


def _spectral_start(a: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """The symmetric matrices that preserve every eigenspace group of
    a^T a: y_i y_j^T + y_j y_i^T for eigenvectors y_i, y_j of one group."""
    try:
        lam, y = np.linalg.eigh(a.T @ a)
    except np.linalg.LinAlgError:
        raise InputError(
            f"float operators of magnitude {float(np.abs(a).max()):.3g} are too large: the "
            "eigendecomposition of the symmetric commutant's start did not converge") from None
    group = np.concatenate(([0], np.cumsum(np.diff(lam) > merge_band(tol) * lam[-1])))
    if not group[-1]:
        return _symmetric_basis(len(lam), np.float64)
    iu, ju = _upper_indices(len(lam))
    keep = group[iu] == group[ju]
    half = y[:, iu[keep]].T[:, :, None] * y[:, ju[keep]].T[:, None, :]
    return half + half.transpose(0, 2, 1)


def _commutant(ops: Sequence[np.ndarray], gram: np.ndarray, mode: Mode,
               tol: TolerancePolicy, ginv: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """symmetric_commutant; ``ginv`` is the scaled form of G^-1 when the
    caller has it (exact mode only reads it).

    Each lane works on symmetric matrices S, which stand for the
    self-adjoint w, and imposes S a - hat S, the constraint [w, a] in its
    frame. For skew a that constraint is symmetric, so its upper triangle,
    n(n+1)/2 rows, is the whole of it. The working basis of S only ever
    shrinks, and the elements go back to w once, at the end.

    Exact mode works in the Gram frame, S = G w and hat = -a^T: there
    G [w, a] = S a + a^T S, and w = G^-1 S at the end. It takes the
    operators one at a time from the full symmetric basis: fraction-free
    elimination grows with the rank, and a full-rank first constraint
    costs more than the small ones it saves.

    Float mode works in the unit frame. With G = L L^T it maps each a to
    A = L^T a L^-T, skew up to roundoff, and the commutant of the A in
    the symmetric matrices comes back as w = L^-T S L^T. The constraint
    is the commutator S A - A S itself, which is exactly zero in floats
    for S = I: the identity cannot be lost to roundoff, as it can in the
    Gram frame, where G a G^-1 carries roundoff times the condition number
    of G and reads as a constraint on the commutant's own elements.
    The start comes from one generic element A of the operators' span,
    the frame image of sum (i + 1) a_i; the commutant of a set equals that
    of the set plus any element of its span. A symmetric S with S A = A S
    also commutes with A^T, and so with M = A^T A, whether or not A is
    exactly skew: it preserves every eigenspace of M. So the symmetric
    matrices that preserve each eigenvalue group of M (one eigh, groups
    merged within :func:`merge_band`, whose eigenspace error stays far
    below the rank cut) contain the commutant; merging only makes that
    start larger, and a single group starts from every symmetric matrix.
    The generic element is imposed again first, then every operator: the
    constraints of as many operators as keep them no larger than the
    operator stack come from one stacked product, and an SVD runs only for
    one that is nonzero at its own scale.
    """
    n = gram.shape[0]
    iu, ju = _upper_indices(n)
    if mode == EXACT:
        # smaller entries, the same constraints
        scaled = np.array([a // (math.gcd(*a.reshape(-1).tolist()) or 1)
                           for a in (to_scaled(op)[0] for op in ops)], dtype=object)
        work = _symmetric_basis(n, object)
        # max(1, max|a|): each entry of a constraint S a + a^T S sums 2n
        # terms, each at most max|S| times this
        top = np.abs(scaled).max(initial=1)
    else:
        low = np.linalg.cholesky((gram + gram.T) / 2.0)
        linv = np.linalg.inv(low)
        scaled = low.T @ np.asarray(ops, dtype=np.float64).reshape(-1, n, n) @ linv.T
        if len(scaled) > 1:
            generic = np.arange(1.0, len(scaled) + 1) @ scaled.reshape(len(scaled), -1)
            scaled = np.concatenate([generic.reshape(1, n, n), scaled])
        work = _spectral_start(scaled[0], tol) if len(scaled) else _symmetric_basis(n, np.float64)
    done, ws, stack, lifted_ops = 0, None, scaled, None
    while done < len(scaled) and len(work) > 1:
        if ws is None:
            # the working stack as the constraints read it: exact mode lifts
            # it once per shrink, the operators once, and converts back only
            # a nonzero constraint, for the exact nullspace
            ws, stack = work, scaled
            floats = mode == EXACT and exact_floats(
                [work], lambda tw: 2 * n * tw * top, len(work) * (len(scaled) - done) * n ** 3)
            if floats:
                if lifted_ops is None:
                    lifted_ops = scaled.astype(np.float64)  # exact: top < 2**53
                ws, stack = floats[0], lifted_ops
        # float mode stacks as many operators as keep the constraints no
        # larger than the operator stack itself
        size = 1 if mode == EXACT else max(1, len(scaled) // len(work))
        block = stack[done:done + size]
        sa = int_matmul(ws[None], block[:, None])
        if mode == EXACT:  # hat S = -a^T S = -(S a)^T; zero tests take no scale
            upper, scales = sa[:, :, iu, ju] + sa[:, :, ju, iu], 1.0
        else:  # hat = A
            upper = sa[:, :, iu, ju] - (block[:, None] @ ws[None])[:, :, iu, ju]
            scales = np.maximum(1.0, np.abs(block).max(axis=(1, 2))) * scale_of(ws)
        # a commutator that is zero at the scale of its inputs is no
        # constraint at all; without this cutoff pure roundoff noise would
        # read as a rank-one condition and eat a commutant direction
        zero = is_zero_matrix(upper, mode, tol, scales, axis=(1, 2))
        # [j, r, i]: row r of the constraint of block[j] on working element i
        for k, skip in zip(np.transpose(upper, (0, 2, 1)), zero):
            done += 1
            if skip:
                continue
            null = rank_and_nullspace(back_to_ints(k) if ws is not work else k, mode, tol)[1].basis
            if len(null) < len(work):
                work = int_matmul(null, work.reshape(len(work), -1)).reshape(-1, n, n)
                ws = None
                break
    if mode == EXACT:
        return list(int_matmul(scaled_inverse(gram, mode)[0] if ginv is None else ginv, work))
    return list(linv.T @ work @ low.T)


def nabla_commutant(g: MetricLieAlgebra) -> list[np.ndarray]:
    """The G-self-adjoint operators commuting with every Levi-Civita
    operator; those are G-skew, as :func:`symmetric_commutant` requires."""
    return _commutant(list(g.levi_civita.scaled_operators), g.scaled_gram[0], g.mode, g.tol,
                      g.scaled_gram_inverse[0] if g.mode == EXACT else None)


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
        suggestion="rerun with a smaller --tol or a different --seed",
    )


@dataclass(frozen=True, eq=False)
class DeRhamSplitting:
    """Orthogonal factors of the metric: one flat block, then irreducible ones."""

    algebra: MetricLieAlgebra  # the input in the split's mode: its float twin if promoted
    factors: tuple[Subspace, ...]
    factor_is_flat: tuple[bool, ...]
    holonomy: OperatorAlgebra
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


def _verify_splitting(g: MetricLieAlgebra, factors: list[Subspace]) -> None:
    """The factors span the algebra and are pairwise orthogonal.

    Their invariance is settled where it is computed: the flat factor by
    the stop of :func:`_flat_factor`, the curved ones by restricting the
    seeds and the connection operators to them.
    """
    n = g.dim
    total = sum(f.dim for f in factors)
    stacked = np.concatenate([f.basis for f in factors], axis=0)
    if total != n or matrix_rank(stacked, g.mode, g.tol) != n:
        raise TheoremViolationError("factors do not span the whole algebra")
    # one gram matrix of all factor bases; its blocks off the diagonal must vanish
    label = np.repeat(np.arange(len(factors)), [f.dim for f in factors])
    gram = g.scaled_gram[0]
    cross = restricted_gram(stacked, gram)[label[:, None] != label[None, :]]
    if not is_zero_matrix(cross, g.mode, g.tol, scale=scale_of(gram)):
        raise TheoremViolationError("factors are not pairwise orthogonal")


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
    seeds, nabla = _closure_inputs(g, g.levi_civita)
    flat = _flat_factor(g, seeds, nabla)
    flats = [flat] if flat.dim else []
    curved, hol = [], ()
    if flat.dim < n:
        ops = np.concatenate([np.stack(seeds), nabla])
        w = orthocomplement(flat, g.scaled_gram[0], g.tol)
        if flat.dim:  # a positive multiple of the stack: the same spans
            ops = restrict_operator(ops, w.basis, g.mode, g.tol)
            if ops is None:
                raise TheoremViolationError(
                    "curvature and connection do not preserve the curved block")
        gram = restricted_gram(w.basis, g.scaled_gram[0])
        m, k = w.dim, len(seeds)
        if (g.mode == EXACT and m >= 2
                and _holonomy_dim_mod_p(gram, ops[:k], ops[k:]) == m * (m - 1) // 2):
            curved, hol = [w], _so_basis(w, g.scaled_gram[0])
        else:
            comm = symmetric_commutant(ops, gram, g.mode, g.tol)
            blocks = [(w, ops)]
            if len(comm) > 1:
                split = _first_eigensplit(comm, gram, g.mode, g.tol, random.Random(seed),
                                          "de Rham splitting", len(comm))
                if split.promoted_to_float:
                    raise _PromoteToFloat()
                blocks = []
                for _, eig in split.pairs:
                    local = restrict_operator(ops, eig.basis, g.mode, g.tol)
                    if local is None:
                        raise TheoremViolationError(
                            "factor is not invariant under the curvature and the connection")
                    blocks.append((Subspace(n, eig.basis @ w.basis, g.mode), local))
                blocks.sort(key=lambda c: _sort_key(c[0], g.mode, g.tol))
            curved = [f for f, _ in blocks]
            hol = tuple(h for f, local in blocks for h in _factor_holonomy(g, f, local, k))
    factors = flats + curved
    _verify_splitting(g, factors)
    return DeRhamSplitting(g, tuple(factors), (True,) * len(flats) + (False,) * len(curved),
                           OperatorAlgebra(n, hol, g.mode), g.mode, promoted)


def _flat_factor(g: MetricLieAlgebra, seeds: list[np.ndarray], nabla: np.ndarray) -> Subspace:
    """The largest subspace that every seed kills and every operator of
    ``nabla`` preserves: the kernel of the holonomy.

    Starts from the common kernel K of the seeds. While ``nabla`` does not
    preserve K, K shrinks to the x in it whose images D_z x all lie in it:
    the common kernel of the rows ann that vanish on K and of every
    ann D_z. Each pass removes at least one direction, so at most dim K
    passes run. In float mode that kernel's rank cut is relative to the
    whole stack, whose scale is that of the D_z, and K comes from a rank
    cut at the scale of the seeds: a leak that the residual band of
    :func:`linalg.is_invariant` flags but that is noise at the scale
    of the D_z removes nothing, and K stands as it is.
    """
    n = g.dim
    flat = common_kernel(seeds, n, g.mode, g.tol)
    while 0 < flat.dim < n and not is_invariant(nabla, flat.basis, g.mode, g.tol):
        ann = rank_and_nullspace(flat.basis, g.mode, g.tol)[1].basis
        shrunk = common_kernel([ann, *int_matmul(ann, nabla)], n, g.mode, g.tol)
        if shrunk.dim == flat.dim:
            break
        flat = shrunk
    return flat


def _factor_holonomy(g: MetricLieAlgebra, factor: Subspace, local: np.ndarray,
                     num_seeds: int) -> list[np.ndarray]:
    """The holonomy on one curved factor, as operators on the whole algebra.

    ``local`` is the stack of the seeds, then the connection operators,
    restricted to the factor. The holonomy preserves the factor and kills
    its orthocomplement, and there it is the closure of the restricted
    seeds under the restricted operators, at most so(factor) in size.
    Operators that restrict to zero at the data scale are dropped first;
    D_z of another summand of a direct sum is one. A kept m x m matrix M
    acts on the algebra as B^T M (B G B^T)^-1 B G, for the factor basis B.
    """
    m = factor.dim
    fseeds, fnabla = (stack[~is_zero_matrix(stack, g.mode, g.tol, scale_of(stack), axis=(1, 2))]
                      for stack in (local[:num_seeds], local[num_seeds:]))
    kept = span_closure(list(fseeds), fnabla, int_commutator, g.mode, g.tol, m * (m - 1) // 2)
    if not kept:
        return []
    b, gram, _ = to_scaled(factor.basis, g.scaled_gram[0])
    back = int_matmul(scaled_inverse(restricted_gram(b, gram), g.mode)[0], int_matmul(b, gram))
    return list(int_matmul(int_matmul(b.T, np.stack(kept)), back))


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
    c = g.scaled_bracket[0]
    sc = scale_of(c, g.scaled_gram[0])
    n, p, m = g.dim, len(linear_rows), len(quad_rows)
    a, y, gram, _ = to_scaled(linear_rows, quad_rows, g.scaled_gram[0])
    # only a zero test reads val: |br| <= n**2 A C Y, |gram y^T| <= n G Y, and
    # each entry of val + val^T sums 2n terms of their product
    lifted = exact_floats([a, c, y, gram],
                          lambda ta, tc, ty, tg: 2 * n ** 4 * ta * tc * tg * ty * ty,
                          p * n ** 3 + p * m * n * n + n * n * m + p * m * m * n)
    a, c, y, gram = lifted or (a, c, y, gram)
    # br[a, k, i] = the k-th component of [a, y_i]
    br = int_tensordot(int_tensordot(a, c, axes=(1, 0)), y, axes=(1, 1))
    # val[a, i, j] = <[a, y_i], y_j>, then symmetrised in i, j
    val = int_matmul(np.transpose(br, (0, 2, 1)), int_matmul(gram, y.T))
    return is_zero_matrix(val + np.transpose(val, (0, 2, 1)), g.mode, g.tol, scale=sc * sc)


def check_reducing_pair(g: MetricLieAlgebra, s1: Subspace, s2: Subspace) -> ConditionReport:
    if s1.mode != g.mode or s2.mode != g.mode:
        raise InputError("pair and algebra must use the same scalar mode")
    gram = g.scaled_gram[0]
    orthogonal = is_zero_matrix(s1.basis @ gram @ s2.basis.T, g.mode, g.tol,
                                scale=scale_of(gram))
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


def reducibility_witness(g: MetricLieAlgebra, seed: int = 0, *,
                         splitting: DeRhamSplitting) -> Optional[ReducingPair]:
    """An orthogonal reducing pair when the metric splits, else None.

    With two or more factors the first factor against the rest is such a
    pair. A single flat block of dimension at least two is cut along an
    eigensplit of the self-adjoint operators commuting with the connection;
    those cuts are connection invariant, which is enough for the pair
    conditions. ``splitting`` is :func:`de_rham_splitting` of ``g``, and
    ``seed`` draws the candidates of that eigensplit.
    """
    gg = splitting.algebra
    if len(splitting.factors) >= 2:
        s1 = splitting.factors[0]
        s2 = subspace_sum(splitting.factors[1:], gg.tol)
        return ReducingPair(s1, s2, splitting.mode)
    if not splitting.factor_is_flat[0] or g.dim < 2:
        return None
    comm = nabla_commutant(gg)
    # a flat block of dimension >= 2 always splits; when no candidate gives
    # a clear eigen-gap the NumericalAmbiguityError says so (exit 3). It
    # splits on G, whose band check_reducing_pair applies, so promoted bases
    # are G-orthonormal; a positive multiple of G moves no exact split
    split = _first_eigensplit(comm, gg.gram, gg.mode, gg.tol, random.Random(seed),
                              "flat reducing pair", 2)
    h = to_float_algebra(gg) if split.promoted_to_float else gg
    s1 = split.pairs[0][1]
    s2 = subspace_sum([p for _, p in split.pairs[1:]], h.tol)
    if not check_reducing_pair(h, s1, s2).passed:
        raise TheoremViolationError(
            "connection-invariant orthogonal split fails the pair conditions")
    return ReducingPair(s1, s2, h.mode)
