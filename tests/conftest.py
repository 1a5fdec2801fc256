"""Shared corpus: 200 seeded metric Lie algebras of dimension at most 5.

The Jacobi identity holds by construction. Every entry is assembled from
pieces that are Lie algebras for any parameter choice: a single random
derivation acting on an abelian ideal, a two-step extension whose image
is central, and classical three-dimensional blocks in direct sums. The
Gram matrix is an independent random SPD form, and half the entries get
a random rational change of basis on top. make_algebra still validates
each entry, so a corpus bug fails loudly here and not in a property test.
"""

from fractions import Fraction

import numpy as np
import pytest

from lcplab.liealg import bracket_table, make_algebra, transform_algebra
from lcplab.linalg import exact_det, is_zero_matrix, scale_of, solve_linear
from lcplab.scalars import DEFAULT_TOL, exact_array, from_scaled, zeros_array

_SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
_HEISENBERG = {(0, 1): {2: 1}}
_SOLV3 = {(2, 0): {0: 1}, (2, 1): {1: -1}}
_AFFINE2 = {(0, 1): {1: 1}}

_CATALOG = [
    (1, {}),
    (2, {}),
    (2, _AFFINE2),
    (3, _SO3),
    (3, _HEISENBERG),
    (3, _SOLV3),
]


def _rational(rng) -> Fraction:
    return Fraction(int(rng.integers(-2, 3)), int(rng.choice((1, 2))))


def _rational_matrix(rng, n) -> np.ndarray:
    return exact_array([[_rational(rng) for _ in range(n)] for _ in range(n)])


def _invertible(rng, n) -> np.ndarray:
    while True:
        q = _rational_matrix(rng, n)
        if exact_det(q) != 0:
            return q


def _spd_gram(rng, n) -> np.ndarray:
    q = _invertible(rng, n)
    return q.T @ q


def _almost_abelian(rng, n) -> dict:
    # e_{n-1} acts on the abelian span of the rest by a random derivation
    entries = {}
    for j in range(n - 1):
        col = {k: _rational(rng) for k in range(n - 1)}
        col = {k: v for k, v in col.items() if v != 0}
        if col:
            entries[(n - 1, j)] = col
    return entries


def _two_step(rng, p, q) -> dict:
    # [e_i, e_j] lands in the central slice e_p .. e_{p+q-1}
    entries = {}
    for i in range(p):
        for j in range(i + 1, p):
            col = {p + k: _rational(rng) for k in range(q)}
            col = {k: v for k, v in col.items() if v != 0}
            if col:
                entries[(i, j)] = col
    return entries


def _catalog_sum(rng, n) -> dict:
    entries: dict = {}
    offset = 0
    while offset < n:
        dim, piece = _CATALOG[int(rng.integers(0, len(_CATALOG)))]
        if dim > n - offset:
            continue
        for (i, j), col in piece.items():
            entries[(i + offset, j + offset)] = {k + offset: v
                                                 for k, v in col.items()}
        offset += dim
    return entries


def build_corpus(count: int = 200, seed: int = 20260819) -> list:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            n = int(rng.integers(2, 6))
            entries = _almost_abelian(rng, n)
        elif kind == 1:
            p = int(rng.integers(2, 5))
            q = int(rng.integers(1, 5 - p + 1))
            n = p + q
            entries = _two_step(rng, p, q)
        else:
            n = int(rng.integers(2, 6))
            entries = _catalog_sum(rng, n)
        g = make_algebra(bracket_table(n, entries), gram=_spd_gram(rng, n))
        if rng.integers(0, 2):
            g = transform_algebra(g, _invertible(rng, n))
        out.append(g)
    return out


def scaled_value(scaled):
    """The array that a scaled ``(values, den)`` pair stands for, or None:
    Fractions in exact mode, floats in float mode."""
    return None if scaled is None else from_scaled(*scaled)


def positive_multiple(got, want):
    """got = c * want for some c > 0 (any want, including zero)."""
    got, want = got.reshape(-1), want.reshape(-1)
    k = next((i for i, x in enumerate(want) if x != 0), None)
    if k is None:
        return all(x == 0 for x in got)
    return got[k] * want[k] > 0 and all(x * want[k] == y * got[k] for x, y in zip(got, want))


def coords_in_rowbasis(vecs, basis_rows, mode, tol):
    """Coefficients X with X @ basis_rows = vecs, or None if not in the span:
    Fractions in exact mode, floats in float mode."""
    v = np.atleast_2d(vecs)
    if basis_rows.shape[0] == 0:
        if is_zero_matrix(v, mode, tol, scale=scale_of(v)):
            out = zeros_array((v.shape[0], 0), mode)
            return out[0] if vecs.ndim == 1 else out
        return None
    x = solve_linear(basis_rows.T, v.T, mode, tol)
    if x is None:
        return None
    xt = from_scaled(*x).T
    return xt[0] if vecs.ndim == 1 else xt


def subspace_contains(outer, inner, tol):
    if inner.dim == 0:
        return True
    return coords_in_rowbasis(inner.basis, outer.basis, outer.mode, tol) is not None


class LoggedStore:
    """A closure store that records every candidate row it tests."""

    def __init__(self, store):
        self.store, self.tested = store, []

    def insert(self, block):
        self.tested.extend(block)
        return self.store.insert(block)

    @property
    def dim(self):
        return self.store.dim


def subspaces_equal(a, b, tol=DEFAULT_TOL):
    if a.mode != b.mode or a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return subspace_contains(a, b, tol) and subspace_contains(b, a, tol)


@pytest.fixture(scope="session")
def random_corpus():
    return build_corpus()
