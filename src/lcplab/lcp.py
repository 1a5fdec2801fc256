"""Locally conformally product structures on metric Lie algebras.

The data of such a structure is a covector (the Lee form) together with a
distinguished ideal that the associated Weyl connection leaves parallel
and flat. The validator checks each defining condition separately, with
one decision each: the ideal and parallel conditions are invariance
tests of an operator stack through :func:`linalg.is_invariant`, in exact
mode one zero test of the ideal's annihilator times the images, and
closedness and (non-)flatness are zero tests of a whole tensor. The
decomposability analysis asks whether the orthogonal factors of the
metric that actually carry the structure form a proper part of the
algebra.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Optional

import numpy as np

from .errors import InputError, TheoremViolationError
from .holonomy import DeRhamSplitting, ReducingPair, check_reducing_pair
from .liealg import (
    InvariantConnection,
    MetricLieAlgebra,
    WEYL,
    curvature_bound,
    curvature_terms,
    is_ideal,
    is_subalgebra,
    is_unimodular,
    row_slabs,
)
from .linalg import (
    Subspace,
    check_square_scale,
    is_invariant,
    is_zero_matrix,
    make_subspace,
    matrix_rank,
    scale_of,
    scaled_inverse,
    solve_linear,
    subspace_sum,
)
from .scalars import (
    FLOAT,
    Mode,
    array_for_mode,
    exact_floats,
    from_scaled,
    int_matmul,
    int_tensordot,
    lowest_terms,
    to_float_array,
    to_scaled,
)


@dataclass(frozen=True, eq=False)
class LcpData:
    """Candidate structure: the special ideal, the Lee covector, and
    optionally a complementary subalgebra used for the trace identity."""

    flat_ideal: Subspace
    lee_covector: np.ndarray  # length n, components of the Lee form
    complement: Optional[Subspace] = None

    @property
    def q(self) -> int:
        return self.flat_ideal.dim


def _finite_array(data: Any, mode: Mode, name: str) -> np.ndarray:
    """``data`` parsed in ``mode``, a float refused in exact mode; a NaN or
    infinite float entry is refused by ``name``, since it passes or breaks
    every zero band downstream."""
    a = array_for_mode(data, mode)
    if a.dtype == np.float64 and not np.isfinite(a).all():
        raise InputError(f"{name} has a non-finite entry")
    return a


def make_lcp_data(g: MetricLieAlgebra, ideal_rows: Any, lee_covector: Any,
                  complement_rows: Any = None) -> LcpData:
    u = make_subspace(_finite_array(ideal_rows, g.mode, "flat ideal"), g.dim, g.mode, g.tol)
    theta = _finite_array(lee_covector, g.mode, "lee covector")
    if theta.shape != (g.dim,):
        raise InputError(f"lee covector must have length {g.dim}")
    comp = None
    if complement_rows is not None:
        comp = make_subspace(_finite_array(complement_rows, g.mode, "complement"), g.dim,
                             g.mode, g.tol)
    check_square_scale(u.basis, theta, *([] if comp is None else [comp.basis]))
    return LcpData(u, theta, comp)


def lcp_data_to_float(data: LcpData) -> LcpData:
    def twin(s: Optional[Subspace]) -> Optional[Subspace]:
        return None if s is None else Subspace(s.ambient_dim, to_float_array(s.basis), FLOAT)
    return LcpData(twin(data.flat_ideal), to_float_array(data.lee_covector),
                   twin(data.complement))


# ---------------------------------------------------------------------------
# Weyl connection


def lee_sharp(g: MetricLieAlgebra, theta: np.ndarray) -> np.ndarray:
    """The vector dual to the covector via the inner product."""
    ginv, d = g.scaled_gram_inverse
    t, dt = to_scaled(theta)
    return from_scaled(ginv @ t, d * dt)


def weyl_connection(g: MetricLieAlgebra, theta: np.ndarray) -> InvariantConnection:
    """D_x y = N_x y + t(x) y + t(y) x - <x, y> t#, on top of Levi-Civita N."""
    diag = np.arange(g.dim)
    base, dl = g.levi_civita.scaled
    ginv, di = g.scaled_gram_inverse
    (gram, dg), (theta, d) = g.scaled_gram, to_scaled(theta)
    sharp = ginv @ theta  # t# over di * d
    # every term over dl * di * d * dg: the last one is gram over dg times t#
    coeffs = base * (di * d * dg)
    coeffs[:, diag, diag] += theta[:, None] * (dl * di * dg)  # coeffs[i, j, j] += theta[i]
    coeffs[diag, :, diag] += theta[None, :] * (dl * di * dg)  # coeffs[i, j, i] += theta[j]
    coeffs -= gram[:, :, None] * sharp * dl
    return InvariantConnection(lowest_terms(coeffs, dl * di * d * dg), WEYL, g.mode)


def is_closed_covector(g: MetricLieAlgebra, theta: np.ndarray) -> bool:
    """True when the covector kills every bracket: c . theta vanishes."""
    c = g.scaled_bracket[0]
    sc = scale_of(c, theta)
    return is_zero_matrix(c @ to_scaled(theta)[0], g.mode, g.tol, scale=sc * sc)


# ---------------------------------------------------------------------------
# the Lee form via the trace identity


def lee_form_from_splitting(g: MetricLieAlgebra, u: Subspace, h: Subspace) -> np.ndarray:
    """Recover the Lee covector from the splitting g = u (+) h.

    On a unimodular algebra with the structure present, the value on x is
    -1/q times the trace of the h-component of ad_x restricted to h,
    where q is the dimension of u. Requires h to be a subalgebra and the
    two parts to be complementary.
    """
    if not is_unimodular(g):
        raise InputError("the trace identity needs a unimodular algebra")
    if u.dim + h.dim != g.dim:
        raise InputError("ideal and complement dimensions must add up")
    hb, ub, _ = to_scaled(h.basis, u.basis)
    stacked = np.concatenate([hb, ub], axis=0)
    if matrix_rank(stacked, g.mode, g.tol) != g.dim:
        raise InputError("ideal and complement do not span the algebra")
    if not is_subalgebra(g, h):
        raise InputError("the complement must be a subalgebra")
    q = u.dim
    if q == 0:
        raise InputError("the ideal must be nonzero")
    # on the rows of B = (hb; ub), scaled to ints, the coordinate of a vector
    # along hb_r is row r of (B^T)^-1 = inv / den times it: one inverse
    inv, den = scaled_inverse(stacked.T, g.mode)
    # images[x, :, r] = [e_x, hb_r] over dc
    c, dc = g.scaled_bracket
    images = int_tensordot(c, hb, axes=(1, 1))
    # the hb_r-coordinate of [e_x, hb_r], summed over r: the trace on h
    traces = int_tensordot(images, inv[:h.dim], axes=([1, 2], [1, 0]))
    return from_scaled(-traces, q * dc * den)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class LcpReport:
    """One flag per structure condition; None marks a skipped check."""

    proper: bool
    nonzero: bool
    closed: bool
    adapted: bool
    u_is_ideal: bool
    unimodular: bool
    u_weyl_parallel: bool
    u_weyl_flat: bool
    weyl_nonflat: bool
    lee_formula_consistent: Optional[bool]

    @property
    def overall(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """The names of the failed checks, in field order."""
        return [f.name for f in fields(self) if getattr(self, f.name) is False]

    def as_dict(self) -> dict:
        return {**asdict(self), "overall": self.overall}


def validate_lcp(g: MetricLieAlgebra, data: LcpData) -> LcpReport:
    u = data.flat_ideal
    theta = data.lee_covector
    if u.mode != g.mode:
        raise InputError("structure data and algebra must share one scalar mode")
    n = g.dim
    sc_theta = scale_of(theta)
    proper = 0 < u.dim < n
    nonzero = not is_zero_matrix(theta.reshape(1, -1), g.mode, g.tol, scale=1.0)
    closed = is_closed_covector(g, theta)
    ub = to_scaled(u.basis)[0]
    adapted = is_zero_matrix((ub @ theta).reshape(1, -1), g.mode, g.tol,
                             scale=sc_theta * scale_of(ub))
    ideal = is_ideal(g, u)
    unimod = is_unimodular(g)
    conn = weyl_connection(g, theta)
    parallel = is_invariant(conn.scaled_operators, ub, g.mode, g.tol)
    sc_r = scale_of(conn.scaled[0]) ** 2
    c, dc = g.scaled_bracket
    a, da = conn.scaled_operators, conn.scaled[1]
    # only zero tests read the curvature: with every entry of R(e_i, e_j) u_k
    # a sum of n terms, each at most max|R| max|ub|, it is never converted
    lifted = exact_floats([c, a, ub],
                          lambda tc, ta, tu: n * tu * curvature_bound(n, dc, da, tc, ta),
                          3 * n ** 5 + n ** 4 * u.dim)
    c, a, ub = lifted or (c, a, ub)
    # both tests a slab of rows at a time, until both are settled
    nonflat, flat_on_u = False, True
    for rows in row_slabs(n):
        curv = curvature_terms(c, dc, a, da, rows)
        nonflat = nonflat or not is_zero_matrix(curv, g.mode, g.tol, scale=sc_r)
        # R(e_i, e_j) u_k for every i in rows, every j and basis vector u_k of u
        flat_on_u = flat_on_u and is_zero_matrix(int_matmul(curv, ub.T), g.mode, g.tol,
                                                 scale=sc_r * scale_of(u.basis))
        if nonflat and not flat_on_u:
            break
    formula: Optional[bool] = None
    if data.complement is not None:
        try:
            recovered = lee_form_from_splitting(g, u, data.complement)
            diff = (recovered - theta).reshape(1, -1)
            formula = is_zero_matrix(diff, g.mode, g.tol, scale=sc_theta)
        except InputError:
            formula = False
    return LcpReport(
        proper=proper,
        nonzero=nonzero,
        closed=closed,
        adapted=adapted,
        u_is_ideal=ideal,
        unimodular=unimod,
        u_weyl_parallel=parallel,
        u_weyl_flat=flat_on_u,
        weyl_nonflat=nonflat,
        lee_formula_consistent=formula,
    )


# ---------------------------------------------------------------------------
# decomposability


@dataclass(frozen=True, eq=False)
class DecomposabilityReport:
    decomposable: bool
    witness: Optional[ReducingPair]
    splitting: DeRhamSplitting
    touched_factors: tuple[int, ...]
    principal_factor_index: int
    q: int
    dim_bound_satisfied: bool
    lcp_report: LcpReport
    mode: Mode

    @property
    def principal_factor(self) -> Subspace:
        return self.splitting.factors[self.principal_factor_index]


def _touched_factor_indices(splitting: DeRhamSplitting, rows: np.ndarray,
                            g: MetricLieAlgebra) -> tuple[int, ...]:
    full = np.concatenate([f.basis for f in splitting.factors], axis=0)
    solved = solve_linear(full.T, rows.T, g.mode, g.tol)
    if solved is None:
        raise TheoremViolationError("structure data does not lie in the factor span")
    coords = solved[0]  # a zero test ignores the common denominator
    # one row of coordinates per factor basis vector, one column per input
    # row; a factor is untouched when each of its rows is zero
    zero = is_zero_matrix(coords, g.mode, g.tol, scale_of(coords), axis=1)
    starts = np.cumsum((0,) + splitting.factor_dims[:-1])
    return tuple(np.flatnonzero(~np.logical_and.reduceat(zero, starts)).tolist())


def lcp_decomposable(g: MetricLieAlgebra, data: LcpData, *, splitting: DeRhamSplitting,
                     lcp_report: LcpReport) -> DecomposabilityReport:
    """Decide whether the structure lives on a proper orthogonal factor.

    ``splitting`` is :func:`de_rham_splitting` of ``g`` and ``lcp_report``
    is :func:`validate_lcp` of ``g`` and ``data``. The factors that meet the
    ideal or the dual of the Lee form are the ones the structure touches;
    the structure decomposes exactly when some factor is untouched. Data
    failing validation raises ``InputError``, and a structure that does
    not touch exactly one non-flat factor raises ``TheoremViolationError``.
    """
    if not lcp_report.overall:
        raise InputError("structure data fails validation: "
                         + ", ".join(lcp_report.failures()))
    gg = splitting.algebra
    dd = data if gg.mode == g.mode else lcp_data_to_float(data)
    sharp = lee_sharp(gg, dd.lee_covector)
    rows = np.concatenate([dd.flat_ideal.basis, sharp.reshape(1, -1)], axis=0)
    touched = _touched_factor_indices(splitting, rows, gg)
    nonflat_touched = [i for i in touched if not splitting.factor_is_flat[i]]
    if len(nonflat_touched) != 1:
        raise TheoremViolationError(
            "the structure must touch exactly one non-flat factor, "
            f"found {len(nonflat_touched)}")
    principal = nonflat_touched[0]
    decomposable = len(touched) < len(splitting.factors)
    witness = None
    if decomposable:
        s1 = subspace_sum([splitting.factors[i] for i in touched], gg.tol)
        s2 = subspace_sum([splitting.factors[i] for i in range(len(splitting.factors))
                           if i not in touched], gg.tol)
        witness = ReducingPair(s1, s2, gg.mode)
        pair_report = check_reducing_pair(gg, s1, s2)
        if not pair_report.passed:
            raise TheoremViolationError(
                "factor-aligned split fails the reducing pair conditions")
    return DecomposabilityReport(
        decomposable=decomposable,
        witness=witness,
        splitting=splitting,
        touched_factors=touched,
        principal_factor_index=principal,
        q=data.q,
        dim_bound_satisfied=splitting.factors[principal].dim >= data.q + 2,
        lcp_report=lcp_report,
        mode=gg.mode,
    )

