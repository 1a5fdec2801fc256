"""Locally conformally product structures on metric Lie algebras.

The data of such a structure is a covector (the Lee form) together with a
distinguished ideal that the associated Weyl connection leaves parallel
and flat. The validator checks each defining condition separately; the
decomposability analysis asks whether the orthogonal factors of the
metric that actually carry the structure form a proper part of the
algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import InputError, TheoremViolationError
from .holonomy import (
    DeRhamSplitting,
    ReducingPair,
    check_reducing_pair,
    de_rham_splitting,
)
from .liealg import (
    InvariantConnection,
    MetricLieAlgebra,
    WEYL,
    bracket_vec,
    curvature_tensor,
    is_ideal,
    is_subalgebra,
    is_unimodular,
    levi_civita,
    to_float_algebra,
)
from .linalg import (
    Subspace,
    invert,
    is_zero_matrix,
    is_zero_scalar,
    make_subspace,
    matrix_rank,
    restrict_operator,
    scale_of,
    solve_linear,
    subspace_sum,
)
from .scalars import (
    FLOAT,
    Mode,
    array_for_mode,
    from_scaled,
    to_float_array,
    to_scaled,
    zeros_array,
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


def make_lcp_data(g: MetricLieAlgebra, ideal_rows: Any, lee_covector: Any,
                  complement_rows: Any = None) -> LcpData:
    u = make_subspace(array_for_mode(ideal_rows, g.mode) if not isinstance(ideal_rows, np.ndarray)
                      else ideal_rows, g.dim, g.mode, g.tol)
    theta = lee_covector if isinstance(lee_covector, np.ndarray) \
        else array_for_mode(lee_covector, g.mode)
    if theta.shape != (g.dim,):
        raise InputError(f"lee covector must have length {g.dim}")
    comp = None
    if complement_rows is not None:
        rows = complement_rows if isinstance(complement_rows, np.ndarray) \
            else array_for_mode(complement_rows, g.mode)
        comp = make_subspace(rows, g.dim, g.mode, g.tol)
    return LcpData(u, theta, comp)


def lcp_data_to_float(data: LcpData) -> LcpData:
    u = data.flat_ideal
    uf = Subspace(u.ambient_dim, to_float_array(u.basis), FLOAT)
    comp = None
    if data.complement is not None:
        comp = Subspace(data.complement.ambient_dim,
                        to_float_array(data.complement.basis), FLOAT)
    return LcpData(uf, to_float_array(data.lee_covector), comp)


# ---------------------------------------------------------------------------
# Weyl connection


def lee_sharp(g: MetricLieAlgebra, theta: np.ndarray) -> np.ndarray:
    """The vector dual to the covector via the inner product."""
    ginv = invert(g.gram, g.mode, g.tol)
    return ginv @ theta


def weyl_connection(g: MetricLieAlgebra, theta: np.ndarray) -> InvariantConnection:
    """D_x y = N_x y + t(x) y + t(y) x - <x, y> t#, on top of Levi-Civita N."""
    diag = np.arange(g.dim)
    base = levi_civita(g).coeffs
    sharp = lee_sharp(g, theta)
    # every term over d * d: the last one is a product of two over d
    base, theta, gram, sharp, d = to_scaled(base, theta, g.gram, sharp)
    coeffs = base * d
    coeffs[:, diag, diag] += theta[:, None] * d  # coeffs[i, j, j] += theta[i]
    coeffs[diag, :, diag] += theta[None, :] * d  # coeffs[i, j, i] += theta[j]
    coeffs -= gram[:, :, None] * sharp
    return InvariantConnection(from_scaled(coeffs, d * d), WEYL, g.mode)


def is_closed_covector(g: MetricLieAlgebra, theta: np.ndarray) -> bool:
    """True when the covector kills every bracket."""
    sc = scale_of(g.bracket, theta)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            val = g.bracket[i, j, :] @ theta
            if not is_zero_scalar(val, g.mode, g.tol, scale=sc * sc):
                return False
    return True


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
    stacked = np.concatenate([h.basis, u.basis], axis=0)
    if matrix_rank(stacked, g.mode, g.tol) != g.dim:
        raise InputError("ideal and complement do not span the algebra")
    if not is_subalgebra(g, h):
        raise InputError("the complement must be a subalgebra")
    q = u.dim
    if q == 0:
        raise InputError("the ideal must be nonzero")
    n = g.dim
    theta = zeros_array((n,), g.mode)
    for x in range(n):
        xvec = zeros_array((n,), g.mode)
        xvec[x] = xvec[x] + 1
        images = np.stack([bracket_vec(g, xvec, h.basis[r]) for r in range(h.dim)])
        coords = solve_linear(stacked.T, images.T, g.mode, g.tol)
        if coords is None:
            raise InputError("bracket left the algebra; invalid input data")
        trace = sum(coords[r, r] for r in range(h.dim))
        theta[x] = -trace / q
    return theta


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
        values = [self.proper, self.nonzero, self.closed, self.adapted,
                  self.u_is_ideal, self.unimodular, self.u_weyl_parallel,
                  self.u_weyl_flat, self.weyl_nonflat]
        if self.lee_formula_consistent is not None:
            values.append(self.lee_formula_consistent)
        return all(values)

    def failures(self) -> list[str]:
        names = ["proper", "nonzero", "closed", "adapted", "u_is_ideal",
                 "unimodular", "u_weyl_parallel", "u_weyl_flat", "weyl_nonflat",
                 "lee_formula_consistent"]
        out = []
        for name in names:
            value = getattr(self, name)
            if value is False:
                out.append(name)
        return out

    def as_dict(self) -> dict:
        return {
            "proper": self.proper,
            "nonzero": self.nonzero,
            "closed": self.closed,
            "adapted": self.adapted,
            "u_is_ideal": self.u_is_ideal,
            "unimodular": self.unimodular,
            "u_weyl_parallel": self.u_weyl_parallel,
            "u_weyl_flat": self.u_weyl_flat,
            "weyl_nonflat": self.weyl_nonflat,
            "lee_formula_consistent": self.lee_formula_consistent,
            "overall": self.overall,
        }


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
    adapted = is_zero_matrix((u.basis @ theta).reshape(1, -1), g.mode, g.tol,
                             scale=sc_theta * scale_of(u.basis))
    ideal = is_ideal(g, u)
    unimod = is_unimodular(g)
    conn = weyl_connection(g, theta)
    parallel = restrict_operator(conn.operators, u.basis, g.mode, g.tol) is not None
    sc_r = scale_of(conn.coeffs)
    sc_r = sc_r * sc_r
    flat_on_u = True
    nonflat = False
    curv = curvature_tensor(g, conn)
    for i in range(n):
        for j in range(i + 1, n):
            r = curv[i, j]
            if not is_zero_matrix(r, g.mode, g.tol, scale=sc_r):
                nonflat = True
            restricted = u.basis @ r.T
            if not is_zero_matrix(restricted, g.mode, g.tol, scale=sc_r * scale_of(u.basis)):
                flat_on_u = False
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
    principal_factor_index: Optional[int]
    q: int
    dim_bound_satisfied: Optional[bool]
    lcp_report: LcpReport
    mode: Mode

    @property
    def principal_factor(self) -> Optional[Subspace]:
        if self.principal_factor_index is None:
            return None
        return self.splitting.factors[self.principal_factor_index]


def _touched_factor_indices(splitting: DeRhamSplitting, rows: np.ndarray,
                            g: MetricLieAlgebra) -> tuple[int, ...]:
    full = np.concatenate([f.basis for f in splitting.factors], axis=0)
    coords = solve_linear(full.T, rows.T, g.mode, g.tol)
    if coords is None:
        raise TheoremViolationError("structure data does not lie in the factor span")
    coords = coords.T  # one row of coordinates per input row
    sc = scale_of(coords)
    touched = []
    offset = 0
    for idx, f in enumerate(splitting.factors):
        block = coords[:, offset:offset + f.dim]
        if not is_zero_matrix(block, g.mode, g.tol, scale=sc):
            touched.append(idx)
        offset += f.dim
    return tuple(touched)


def lcp_decomposable(g: MetricLieAlgebra, data: LcpData, seed: int = 0,
                     force: bool = False,
                     splitting: Optional[DeRhamSplitting] = None,
                     lcp_report: Optional[LcpReport] = None) -> DecomposabilityReport:
    """Decide whether the structure lives on a proper orthogonal factor.

    The factors that meet the ideal or the dual of the Lee form are the
    ones the structure touches; the structure decomposes exactly when
    some factor is untouched. Input failing validation is rejected unless
    ``force`` is set. A splitting or validation report computed earlier
    for the same algebra and data may be passed in to avoid recomputing.
    """
    report = validate_lcp(g, data) if lcp_report is None else lcp_report
    if not report.overall and not force:
        raise InputError("structure data fails validation: "
                         + ", ".join(report.failures()))
    if splitting is None:
        splitting = de_rham_splitting(g, seed=seed)
    if splitting.mode == g.mode:
        gg, dd = g, data
    else:
        gg, dd = to_float_algebra(g), lcp_data_to_float(data)
    sharp = lee_sharp(gg, dd.lee_covector)
    rows = np.concatenate([dd.flat_ideal.basis, sharp.reshape(1, -1)], axis=0)
    touched = _touched_factor_indices(splitting, rows, gg)
    nonflat_touched = [i for i in touched if not splitting.factor_is_flat[i]]
    principal: Optional[int]
    if len(nonflat_touched) == 1:
        principal = nonflat_touched[0]
    else:
        if not force:
            raise TheoremViolationError(
                "the structure must touch exactly one non-flat factor, "
                f"found {len(nonflat_touched)}")
        principal = None
    q = data.q
    bound = None
    if principal is not None:
        bound = splitting.factors[principal].dim >= q + 2
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
        q=q,
        dim_bound_satisfied=bound,
        lcp_report=report,
        mode=gg.mode,
    )

