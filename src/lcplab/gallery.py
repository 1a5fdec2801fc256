"""Worked examples with their expected verdicts.

Four metric Lie algebras exercise every branch of the analysis: the
smallest solvable model, its product with a line, a five-dimensional
solvable algebra with an irrational rotation rate that forces float
mode, and a fourteen-dimensional semidirect sum with semisimple part.
Entries are cached and shared; treat them as read-only.

The builders run on the scaled form an algebra keeps, ints over one
denominator (``MetricLieAlgebra.scaled_bracket``): a semidirect sum
parses its action matrices to that form, checks the action, fills its
bracket and Gram matrix there and hands them, no rational built, to the
validation ``make_algebra`` runs. sl(d) comes from an int stack of its
basis matrices: its commutator coordinates and its trace form are each
one product.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .lattice import LatticeData, companion
from .lcp import LcpData, make_lcp_data
from .liealg import (MetricLieAlgebra, bracket_table, checked_algebra, direct_sum_algebra,
                     make_algebra)
from .scalars import (EXACT, FLOAT, Mode, diagonal_blocks, int_matmul, int_tensordot,
                      scaled_array)

__all__ = [
    "ExpectedVerdicts", "GalleryEntry", "semidirect_sum",
    "fundamental_example", "product_example",
    "strongly_irreducible_example", "sl_example", "all_entries",
    "QUARTIC", "expanding_rate", "rotation_rate",
]


@dataclass(frozen=True)
class ExpectedVerdicts:
    """Ground truth a test run is checked against."""

    mode: Mode
    unimodular: bool
    factor_dims: tuple[int, ...]
    factor_is_flat: tuple[bool, ...]
    holonomy_dim: Optional[int]
    decomposable: Optional[bool]
    principal_dim: Optional[int]
    q: Optional[int]
    dim_bound_satisfied: Optional[bool]
    touched_factors: Optional[tuple[int, ...]] = None


@dataclass(frozen=True, eq=False)
class GalleryEntry:
    name: str
    description: str
    algebra: MetricLieAlgebra
    lcp: Optional[LcpData]
    expected: ExpectedVerdicts
    lattice: Optional[LatticeData] = None
    note: Optional[str] = None


def semidirect_sum(h: MetricLieAlgebra, rep: Sequence[np.ndarray],
                   v_dim: int,
                   v_names: Optional[Sequence[str]] = None) -> MetricLieAlgebra:
    """Abelian ideal of dimension v_dim extended by h acting through rep,
    with the identity Gram matrix on the ideal.

    rep[k] is the matrix by which the k-th basis element of h acts on the
    ideal. The map must be a Lie algebra homomorphism; an action twisted
    the wrong way round (an anti-homomorphism) fails the Jacobi identity
    in the extension and is rejected here by name, since the defect is
    invisible in any single rep matrix.
    """
    if v_dim < 1:
        raise InputError("ideal dimension must be positive")
    if len(rep) != h.dim:
        raise InputError(f"need one action matrix per basis element of h: "
                         f"got {len(rep)}, expected {h.dim}")
    for k, r in enumerate(rep):
        if np.shape(r) != (v_dim, v_dim):
            raise InputError(f"action matrix {k} has shape {np.shape(r)}, "
                             f"expected {(v_dim, v_dim)}")
    rho, dr = scaled_array(list(rep), h.mode)
    # the ideal's zero bracket beside h's, over one denominator with rho
    c, den = diagonal_blocks((np.zeros((v_dim,) * 3, dtype=rho.dtype), dr), h.scaled_bracket)
    rho, hc = rho.reshape(h.dim, v_dim, v_dim) * (den // dr), c[v_dim:, v_dim:, v_dim:]
    # defect[i, j] = [rho_i, rho_j] - sum_k c_ijk rho_k, times den^2
    prod = int_matmul(rho[:, None], rho[None, :])
    defect = prod - np.transpose(prod, (1, 0, 2, 3)) - int_tensordot(hc, rho, axes=(2, 0))
    worst = np.abs(defect).max(axis=(2, 3))
    limit = 0 if h.mode is EXACT else 1e-12 * max(1.0, float(np.abs(rho).max(initial=0)))
    for i, j in zip(*np.triu_indices(h.dim, 1)):
        if worst[i, j] > limit:
            ni, nj = h.basis_names[i], h.basis_names[j]
            raise InputError(
                f"action is not a homomorphism: [rep({ni}), rep({nj})] "
                f"differs from rep([{ni}, {nj}])")
    # [h_k, v_j] = sum_m rho_k[m, j] v_m
    c[v_dim:, :v_dim, :v_dim] = np.transpose(rho, (0, 2, 1))
    c[:v_dim, v_dim:, :v_dim] = -np.transpose(rho, (2, 0, 1))
    gram = diagonal_blocks(scaled_array(np.identity(v_dim, dtype=int), h.mode), h.scaled_gram)
    if v_names is None:
        v_names = tuple(f"v{i}" for i in range(v_dim))
    names = tuple(str(s) for s in v_names) + h.basis_names
    return checked_algebra(MetricLieAlgebra((c, den), gram, h.mode, names, h.tol))


def _line(name: str = "s") -> MetricLieAlgebra:
    c = bracket_table(1, {}, EXACT)
    return make_algebra(c, basis_names=(name,))


@functools.cache
def fundamental_example() -> GalleryEntry:
    """Plane semidirect line, weights +1 and -1: the smallest model."""
    c = bracket_table(3, {(2, 0): {0: 1}, (2, 1): {1: -1}}, EXACT)
    g = make_algebra(c, basis_names=("X", "Y", "T"))
    lcp = make_lcp_data(
        g,
        ideal_rows=[[1, 0, 0]],
        lee_covector=[0, 0, 1],
        complement_rows=[[0, 1, 0], [0, 0, 1]],
    )
    expected = ExpectedVerdicts(
        mode=EXACT, unimodular=True,
        factor_dims=(3,), factor_is_flat=(False,),
        holonomy_dim=3, decomposable=False,
        principal_dim=3, q=1, dim_bound_satisfied=True,
        touched_factors=(0,),
    )
    lattice = LatticeData(
        integer_matrix=np.array([[1, 1], [1, 2]], dtype=object),
        t0=math.log((3.0 + math.sqrt(5.0)) / 2.0),
        translation_parts=None,
    )
    return GalleryEntry(
        name="fundamental",
        description="three-dimensional solvable model with a parallel "
                    "degenerate line field",
        algebra=g, lcp=lcp, expected=expected, lattice=lattice)


@functools.cache
def product_example() -> GalleryEntry:
    """The fundamental model times a flat line."""
    base = fundamental_example().algebra
    g = direct_sum_algebra(base, _line())
    lcp = make_lcp_data(
        g,
        ideal_rows=[[1, 0, 0, 0]],
        lee_covector=[0, 0, 1, 0],
        complement_rows=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    expected = ExpectedVerdicts(
        mode=EXACT, unimodular=True,
        factor_dims=(1, 3), factor_is_flat=(True, False),
        holonomy_dim=3, decomposable=True,
        principal_dim=3, q=1, dim_bound_satisfied=True,
        touched_factors=(1,),
    )
    lattice = LatticeData(
        integer_matrix=np.array([[1, 1], [1, 2]], dtype=object),
        t0=math.log((3.0 + math.sqrt(5.0)) / 2.0),
        translation_parts=(1.0, math.sqrt(2.0)),
    )
    return GalleryEntry(
        name="product",
        description="fundamental model times a line; decomposable with a "
                    "one-dimensional flat complement",
        algebra=g, lcp=lcp, expected=expected, lattice=lattice,
        note="weakly reducible: the lattice is not a product of lattices, "
             "but its restriction to the three-dimensional factor is the "
             "fundamental entry's lattice and still acts properly "
             "discontinuously there")


QUARTIC = (1, -3, 3, -3, 1)
"""X^4 - 3X^3 + 3X^2 - 3X + 1, constant term first.

Splits over the reals into (X^2 - aX + 1)(X^2 - bX + 1) with
a = (3+sqrt 5)/2 and b = (3-sqrt 5)/2, so two reciprocal real roots and
one unit-circle pair. Irreducible over the integers.
"""


def expanding_rate() -> float:
    """log of the largest root of QUARTIC."""
    a = (3.0 + math.sqrt(5.0)) / 2.0
    return math.log((a + math.sqrt(a * a - 4.0)) / 2.0)


def rotation_rate() -> float:
    """Argument of the unit-circle root pair of QUARTIC."""
    return math.acos((3.0 - math.sqrt(5.0)) / 4.0)


@functools.cache
def strongly_irreducible_example() -> GalleryEntry:
    """Four-space semidirect line: one hyperbolic plane, one rotation plane.

    The weights ln(lambda) and the rotation rate are irrational, so the
    algebra only exists in float mode. The lattice matrix is the
    companion of QUARTIC.
    """
    a = expanding_rate()
    mu = rotation_rate()
    c = bracket_table(5, {
        (4, 0): {0: a},
        (4, 1): {1: -a},
        (4, 2): {3: mu},
        (4, 3): {2: -mu},
    }, FLOAT)
    g = make_algebra(c, mode=FLOAT, basis_names=("x1", "x2", "y1", "y2", "t"))
    lcp = make_lcp_data(
        g,
        ideal_rows=[[1.0, 0.0, 0.0, 0.0, 0.0]],
        lee_covector=[0.0, 0.0, 0.0, 0.0, a],
        complement_rows=[[0.0, 1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0]],
    )
    expected = ExpectedVerdicts(
        mode=FLOAT, unimodular=True,
        factor_dims=(2, 3), factor_is_flat=(True, False),
        holonomy_dim=3, decomposable=True,
        principal_dim=3, q=1, dim_bound_satisfied=True,
        touched_factors=(1,),
    )
    lattice = LatticeData(
        integer_matrix=companion(QUARTIC),
        t0=a,
        translation_parts=None,
    )
    return GalleryEntry(
        name="strongly_irreducible",
        description="five-dimensional solvable model whose holonomy factor "
                    "carries the line field and whose flat factor is a "
                    "rotation plane",
        algebra=g, lcp=lcp, expected=expected, lattice=lattice,
        note="strongly irreducible: the expanding rate is the log of an "
             "algebraic unit of degree 4, while any three-dimensional model "
             "only realizes units of degree at most 2")


def _sl_basis(d: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Traceless d x d matrices as one int stack: elementary off-diagonal
    units, then consecutive diagonal differences."""
    off = [(i, j) for i in range(d) for j in range(d) if i != j]
    units = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    diag = units[::d + 1]
    mats = np.concatenate([units[[i * d + j for i, j in off]], diag[:-1] - diag[1:]])
    names = [f"E{i + 1}{j + 1}" for i, j in off]
    names += ["H"] if d == 2 else [f"H{k + 1}" for k in range(d - 1)]
    return mats, tuple(names)


def _sl_with_line(d: int) -> MetricLieAlgebra:
    """sl(d) plus a central line b, with the trace form tr(M^T N)."""
    mats, names = _sl_basis(d)
    s = len(mats)
    flat = mats.reshape(s, d * d)
    # coordinates in the _sl_basis order: the off-diagonal entries, then
    # the partial sums of the diagonal
    partial = np.zeros((d - 1, d * d), dtype=np.int64)
    partial[:, ::d + 1] = np.tri(d - 1, d, dtype=np.int64)
    coords = np.concatenate([flat[:1 - d], partial])
    prod = mats[:, None] @ mats[None, :]
    comm = (prod - np.transpose(prod, (1, 0, 2, 3))).reshape(s, s, d * d)
    sl = make_algebra(comm @ coords.T, gram=flat @ flat.T, basis_names=names)
    return direct_sum_algebra(sl, _line("b"))


@functools.cache
def sl_example(d: int = 2) -> GalleryEntry:
    """Semidirect sum with semisimple part sl(d), dimension 2(d^2+1)+d^2.

    The ideal is (d x d matrices + a line) tensor a plane. sl(d) moves a
    d x d matrix N to N M^T, which on row-flattened coordinates is
    kron(I, M): right multiplication by M itself would compose in the
    wrong order and fail the homomorphism check. The extra generator b
    scales the two plane coordinates by +1 and -1. For d = 2 the total
    dimension is 14.
    """
    if d < 2:
        raise InputError("the construction needs d >= 2")
    n = d * d
    h = _sl_with_line(d)
    mats, _ = _sl_basis(d)
    # M acts on the d x d block as kron(I, M) and fixes the last vector
    blocks = np.zeros((len(mats), n + 1, n + 1), dtype=np.int64)
    blocks[:, :n, :n] = np.kron(np.eye(d, dtype=np.int64), mats)
    b_act = np.kron(np.eye(n + 1, dtype=np.int64), np.diag([1, -1]))
    rep = np.concatenate([np.kron(blocks, np.eye(2, dtype=np.int64)), b_act[None]])
    v_names = tuple(f"w{i}{j}" for i in range(n + 1) for j in range(2))
    g = semidirect_sum(h, rep, v_dim=2 * (n + 1), v_names=v_names)
    dim = g.dim
    fixed = 2 * n  # the fixed (n+1)-th block vector tensor the +1 direction
    ideal = [[0] * dim]
    ideal[0][fixed] = 1
    theta = [0] * dim
    theta[dim - 1] = 1
    complement = []
    for i in range(dim):
        if i == fixed:
            continue
        row = [0] * dim
        row[i] = 1
        complement.append(row)
    lcp = make_lcp_data(g, ideal_rows=ideal, lee_covector=theta,
                        complement_rows=complement)
    expected = ExpectedVerdicts(
        mode=EXACT, unimodular=True,
        factor_dims=(dim,), factor_is_flat=(False,),
        holonomy_dim=None, decomposable=False,
        principal_dim=dim, q=1, dim_bound_satisfied=True,
        touched_factors=(0,),
    )
    return GalleryEntry(
        name=f"sl{d}_semidirect",
        description=f"{dim}-dimensional semidirect sum whose semisimple "
                    "part forces a single irreducible factor",
        algebra=g, lcp=lcp, expected=expected, lattice=None)


def all_entries() -> list[GalleryEntry]:
    return [fundamental_example(), product_example(),
            strongly_irreducible_example(), sl_example(2)]
