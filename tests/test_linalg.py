import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LoggedStore, coords_in_rowbasis, positive_multiple, scaled_value,
                      subspace_contains, subspaces_equal)

from lcplab import holonomy, linalg
from lcplab.errors import InputError
from lcplab.gallery import all_entries
from lcplab.holonomy import holonomy_algebra, symmetric_commutant
from lcplab.liealg import to_float_algebra
from lcplab.linalg import (
    _FloatOrtho,
    canonical_rows,
    closure_dim_mod_p,
    exact_det,
    full_subspace,
    is_zero_matrix,
    make_subspace,
    matrix_rank,
    orthocomplement,
    rank_and_nullspace,
    restrict_operator,
    restricted_gram,
    scaled_inverse,
    selfadjoint_eigensplit,
    solve_linear,
    span_closure,
    subspace_sum,
    support_indices,
    zero_subspace,
)
from lcplab.scalars import (DEFAULT_TOL, EXACT, FLOAT, TolerancePolicy, exact_array, eye_array,
                            float_array, from_scaled, to_scaled)

F = Fraction


def E(rows):
    return exact_array(rows)


# ---------------------------------------------------------------------------
# rank / nullspace


def test_rank_one_matrix_exact():
    rank, null = rank_and_nullspace(E([[1, 1], [1, 1]]), EXACT)
    assert rank == 1
    assert null.dim == 1
    # nullspace is the line through (1, -1)
    v = null.basis[0]
    assert v[0] == -v[1] != 0


def test_rank_zero_matrix_both_modes():
    rank, null = rank_and_nullspace(E([[0, 0, 0, 0], [0, 0, 0, 0]]), EXACT)
    assert (rank, null.dim) == (0, 4)
    rank, null = rank_and_nullspace(np.zeros((2, 4)), FLOAT)
    assert (rank, null.dim) == (0, 4)


def test_rank_identity():
    rank, null = rank_and_nullspace(eye_array(3, EXACT), EXACT)
    assert (rank, null.dim) == (3, 0)


def test_rank_rejects_empty():
    with pytest.raises(InputError):
        rank_and_nullspace(np.zeros((0, 3)), FLOAT)


def test_float_rank_is_relative_to_scale():
    # a tiny but honest rank-2 matrix must not collapse to rank 1
    a = np.array([[1e-12, 0.0], [0.0, 2e-12]])
    assert matrix_rank(a, FLOAT, DEFAULT_TOL) == 2


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_matches_between_backends(rows):
    a = np.array(rows, dtype=object)
    ae = E(rows)
    assert matrix_rank(ae, EXACT, DEFAULT_TOL) == matrix_rank(
        np.array(rows, dtype=np.float64), FLOAT, DEFAULT_TOL
    )


# tall, square and wide matrices, full rank and planted rank (None: full);
# the float SVD is thin unless the matrix is wide, which needs the full V
_RANK_SHAPES = [(9, 4, None), (5, 5, None), (3, 7, None), (10, 6, 3),
                (6, 6, 4), (4, 9, 2), (7, 3, 0), (4, 6, 0)]


@pytest.mark.parametrize("rows,cols,planted", _RANK_SHAPES)
def test_float_rank_and_nullspace_match_exact_on_every_shape(rows, cols, planted):
    rng = np.random.default_rng(97 * rows + cols)
    if planted is None:
        a = rng.integers(-5, 6, (rows, cols))
    else:
        a = rng.integers(-3, 4, (rows, planted)) @ rng.integers(-3, 4, (planted, cols))
    af = a.astype(np.float64)
    rank, null = rank_and_nullspace(af, FLOAT)
    assert rank == matrix_rank(af, FLOAT, DEFAULT_TOL) == matrix_rank(E(a.tolist()), EXACT, DEFAULT_TOL)
    assert rank + null.dim == cols
    assert np.allclose(null.basis @ null.basis.T, np.eye(null.dim), atol=1e-12)
    assert np.max(np.abs(af @ null.basis.T), initial=0.0) <= 1e-10 * max(1.0, np.abs(af).max())


# ---------------------------------------------------------------------------
# solving and inverses


def test_exact_solve_unique():
    a = E([[2, 1], [1, 3]])
    b = E([5, 10])
    x = scaled_value(solve_linear(a, b, EXACT, DEFAULT_TOL))
    assert x is not None
    assert list(a @ x) == [F(5), F(10)]
    assert x[0] == F(1) and x[1] == F(3)


def test_exact_solve_inconsistent_returns_none():
    a = E([[1, 1], [1, 1]])
    assert scaled_value(solve_linear(a, E([1, 2]), EXACT, DEFAULT_TOL)) is None


def test_exact_solve_underdetermined_particular():
    a = E([[1, 1]])
    x = scaled_value(solve_linear(a, E([7]), EXACT, DEFAULT_TOL))
    assert x is not None and x[0] + x[1] == 7


def test_float_solve_is_over_one():
    a = float_array([[2, 1], [1, 3]])
    x, den = solve_linear(a, float_array([5, 10]), FLOAT, DEFAULT_TOL)
    assert den == 1 and x.shape == (2,) and np.allclose(x, [1, 3])
    assert solve_linear(float_array([[1, 1], [1, 1]]), float_array([1, 2]), FLOAT,
                        DEFAULT_TOL) is None


def test_float_residual_tests_fail_on_nan():
    # a NaN residual is within no band: both solves report no solution
    assert solve_linear(np.eye(2), np.array([np.nan, 1.0]), FLOAT, DEFAULT_TOL) is None
    assert restrict_operator(np.full((1, 3, 3), np.nan), np.eye(2, 3), FLOAT, DEFAULT_TOL) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_store_refuses_a_non_finite_candidate(bad):
    store = _FloatOrtho(3, DEFAULT_TOL)
    with pytest.raises(InputError, match="non-finite"):
        store.insert(np.array([[bad, 0.0, 0.0]]))
    assert store.dim == 0


def test_float_store_keeps_a_finite_candidate_whose_norm_overflows():
    # the norm of a finite vector can overflow; the store decides as before
    store = _FloatOrtho(2, DEFAULT_TOL)
    with np.errstate(over="ignore"):
        assert not len(store.insert(np.array([[1e300, 1e300]])))
    assert store.dim == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_float_support_refuses_a_non_finite_entry(bad):
    with pytest.raises(InputError, match="non-finite"):
        support_indices(np.array([[bad, 1.0, 0.0]]), FLOAT, DEFAULT_TOL)


def test_exact_inverse_round_trip():
    a = E([[2, 1], [7, 4]])
    ints, den = scaled_inverse(a, EXACT)
    assert all(type(x) is int for x in ints.reshape(-1))
    prod = a @ from_scaled(ints, den)
    assert prod[0, 0] == 1 and prod[1, 1] == 1 and prod[0, 1] == 0 and prod[1, 0] == 0


def test_exact_inverse_rejects_singular():
    with pytest.raises(InputError):
        scaled_inverse(E([[1, 2], [2, 4]]), EXACT)


def test_exact_det():
    assert exact_det(E([[1, 2], [3, 4]])) == F(-2)
    assert exact_det(E([[1, 2], [2, 4]])) == F(0)
    assert exact_det(E([["1/2", 0], [0, "1/3"]])) == F(1, 6)


# ---------------------------------------------------------------------------
# the one zero test


# around the band 10 * rank_tol = 1e-8 at scales below and above 1
_FLOAT_ENTRIES = st.sampled_from([0.0, -0.0, 3e-9, -8e-9, 2e-8, -5e-8, 1e-3, 7.0,
                                  np.nan, np.inf, -np.inf])
_INT_ENTRIES = st.sampled_from([0, 0, 1, -3, 2**63, -(2**70) + 1])
_SCALES = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 1e3])


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
       st.sampled_from([0, -1, (1, 2), (0, 2), (0, 1, 2)]), st.booleans(), st.data())
def test_axis_zero_test_is_the_per_slice_one(shape, axis, exact, data):
    mode = EXACT if exact else FLOAT
    flat = data.draw(st.lists(_INT_ENTRIES if exact else _FLOAT_ENTRIES,
                              min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(flat, dtype=object if exact else np.float64).reshape(shape)
    # the slices, indexed as the answers: the kept axes first
    reduced = {d % 3 for d in np.atleast_1d(axis)}
    kept = [d for d in range(3) if d not in reduced]
    slices = np.moveaxis(a, kept, list(range(len(kept))))
    kept_shape = tuple(shape[d] for d in kept)
    scale = data.draw(st.one_of(_SCALES, st.lists(_SCALES, min_size=math.prod(kept_shape),
                                                   max_size=math.prod(kept_shape))))
    if isinstance(scale, list):
        scale = np.array(scale).reshape(kept_shape)
    got = is_zero_matrix(a, mode, DEFAULT_TOL, scale, axis=axis)
    assert got.dtype == bool and got.shape == kept_shape
    band = 10 * DEFAULT_TOL.rank_tol
    for idx in np.ndindex(*kept_shape):
        sc = scale if np.ndim(scale) == 0 else scale[idx]
        entries = slices[idx].reshape(-1).tolist()
        # the rule itself: exact entries all 0; float ones all within the
        # band at max(1, scale), which NaN never is
        rule = all(x == 0 if exact else abs(x) <= band * max(1.0, sc) for x in entries)
        assert got[idx] == is_zero_matrix(slices[idx], mode, DEFAULT_TOL, sc) == rule


def test_residual_band_is_read_only_by_is_zero_matrix():
    calls, zero_test = [], set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "zero_slices" not in text and "_nonzero_vectors" not in text, path.name
        tree = ast.parse(text)
        calls += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "residual_band"]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "is_zero_matrix":
                zero_test = {(path.name, node.lineno) for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) == "residual_band"}
    assert zero_test and set(calls) == zero_test


# ---------------------------------------------------------------------------
# subspaces


def test_make_subspace_rejects_dependent_rows():
    with pytest.raises(InputError):
        make_subspace(E([[1, 0], [2, 0]]), 2, EXACT)


def test_subspace_equality_ignores_basis_choice():
    s1 = make_subspace(E([[1, 0], [0, 1]]), 2, EXACT)
    s2 = make_subspace(E([[1, 1], [1, -1]]), 2, EXACT)
    assert subspaces_equal(s1, s2)


def test_subspace_containment():
    plane = make_subspace(E([[1, 0, 0], [0, 1, 0]]), 3, EXACT)
    line = make_subspace(E([[2, 3, 0]]), 3, EXACT)
    off = make_subspace(E([[0, 0, 1]]), 3, EXACT)
    assert subspace_contains(plane, line, DEFAULT_TOL)
    assert not subspace_contains(plane, off, DEFAULT_TOL)
    assert subspace_contains(plane, zero_subspace(3, EXACT), DEFAULT_TOL)


def test_subspace_sum_direct_and_overlapping():
    a = make_subspace(E([[1, 0, 0]]), 3, EXACT)
    b = make_subspace(E([[0, 1, 0]]), 3, EXACT)
    s = subspace_sum([a, b])
    assert s.dim == 2
    with pytest.raises(InputError):
        subspace_sum([a, a])


def test_orthocomplement_euclidean_and_weighted():
    line = make_subspace(E([[1, 1]]), 2, EXACT)
    perp = orthocomplement(line, eye_array(2, EXACT))
    assert perp.dim == 1
    v = perp.basis[0]
    assert v[0] + v[1] == 0
    # with gram diag(1, 2) the complement of span{(1,1)} is span{(2,-1)}
    g = E([[1, 0], [0, 2]])
    perp_w = orthocomplement(line, g)
    w = perp_w.basis[0]
    assert w[0] * 1 + w[1] * 2 == 0


def test_orthocomplement_of_zero_is_everything():
    assert orthocomplement(zero_subspace(3, EXACT), eye_array(3, EXACT)).dim == 3


def test_coords_and_membership():
    basis = E([[1, 0, 0], [1, 1, 0]])
    c = coords_in_rowbasis(E([3, 2, 0]), basis, EXACT, DEFAULT_TOL)
    assert c is not None and list(c) == [F(1), F(2)]
    assert coords_in_rowbasis(E([0, 0, 1]), basis, EXACT, DEFAULT_TOL) is None


def test_restrict_operator_invariant_plane():
    # rotation-by-swap acts on span{e0, e1} inside R^3
    a = E([[0, -1, 0], [1, 0, 0], [0, 0, 5]])
    basis = E([[1, 0, 0], [0, 1, 0]])
    m = restrict_operator(a[None], basis, EXACT, DEFAULT_TOL)
    assert m.shape == (1, 2, 2) and positive_multiple(m, E([[0, -1], [1, 0]]))


def test_restrict_operator_detects_noninvariance():
    a = E([[0, 0], [1, 0]])
    basis = E([[1, 0]])
    assert restrict_operator(a[None], basis, EXACT, DEFAULT_TOL) is None


def test_restrict_operator_stack_matches_each_operator():
    # the stack comes as one positive multiple of the rational matrices
    a = E([[0, -1, 0], [1, 0, 0], [0, 0, 5]])
    b = E([[2, 3, 0], [F(1, 2), 7, 0], [0, 0, 1]])
    basis = E([[1, 1, 0], [1, -1, 0]])
    stacked = restrict_operator(np.stack([a, b]), basis, EXACT, DEFAULT_TOL)
    assert stacked.shape == (2, 2, 2)
    assert positive_multiple(stacked, E([[[0, 1], [-1, 0]],
                                         [[F(25, 4), F(-15, 4)], [F(-5, 4), F(11, 4)]]]))
    for k, op in enumerate((a, b)):
        assert positive_multiple(stacked[k], restrict_operator(op[None], basis, EXACT, DEFAULT_TOL))
    leaves = E([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert restrict_operator(np.stack([a, leaves, b]), basis, EXACT, DEFAULT_TOL) is None
    # the zero subspace is invariant under everything
    assert restrict_operator(np.stack([a, leaves]), basis[:0], EXACT, DEFAULT_TOL).shape == (2, 0, 0)


def test_restrict_operator_stack_keeps_each_float_band():
    # the band scales with each operator's own images: a large invariant
    # operator must not widen the band of a small one that leaves the plane
    basis = float_array([[1, 0, 0], [0, 1, 0]])
    large = 1e8 * float_array([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    small = np.zeros((3, 3))
    small[2, 0] = 1e-6  # e0 -> 1e-6 e2, far above 10 * rank_tol at scale 1
    assert restrict_operator(large[None], basis, FLOAT, DEFAULT_TOL) is not None
    assert restrict_operator(small[None], basis, FLOAT, DEFAULT_TOL) is None
    assert restrict_operator(np.stack([large, small]), basis, FLOAT, DEFAULT_TOL) is None
    assert restrict_operator(np.stack([small, large]), basis, FLOAT, DEFAULT_TOL) is None
    both = restrict_operator(np.stack([large, large / 1e8]), basis, FLOAT, DEFAULT_TOL)
    assert both.dtype == np.float64
    assert np.allclose(both[0], 1e8 * both[1])
    assert np.allclose(both[1], [[1, 2], [3, 4]])


def test_restricted_gram():
    g = E([[2, 0], [0, 3]])
    basis = E([[1, 1]])
    assert restricted_gram(basis, g)[0, 0] == 5


def test_support_indices():
    rows = E([[0, 1, 0, 2], [0, 0, 0, 1]])
    assert support_indices(rows, EXACT, DEFAULT_TOL) == (1, 3)
    # float mode: a column counts when its largest entry clears the band
    # relative to max(1, the largest entry)
    rows = np.array([[0.0, 1e-12, 5.0, -1e-7], [0.0, 0.0, 0.0, 0.0]])
    assert support_indices(rows, FLOAT, DEFAULT_TOL) == (2, 3)


def test_canonical_rows_exact_is_rref():
    rows = E([[2, 2], [0, 4]])
    can = canonical_rows(rows, EXACT, DEFAULT_TOL)
    assert can.shape == (2, 2)
    assert can[0, 0] == 1 and can[0, 1] == 0 and can[1, 0] == 0 and can[1, 1] == 1


def test_canonical_rows_float_is_the_rref():
    # two bases of one float subspace give the same rows: identity at the
    # leftmost columns that raise the rank, past a column of roundoff
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 7))
    b[:, 0] = 1e-20 * rng.standard_normal(3)
    b[:, 2] = 2 * b[:, 1]
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    can = canonical_rows(b, FLOAT, DEFAULT_TOL)
    assert np.abs(can - canonical_rows(rot @ b, FLOAT, DEFAULT_TOL)).max() < 1e-9
    assert np.abs(can[:, [1, 3, 4]] - np.eye(3)).max() < 1e-12
    assert np.abs(can @ np.linalg.pinv(b) @ b - can).max() < 1e-9


# ---------------------------------------------------------------------------
# span closure


def _comm(a, b):
    # [a, b] for each a of a stack
    return a @ b - b @ a


def test_span_closure_sl2_from_one_generator():
    # seed E12, step = bracket with E21; closure is all of sl(2)
    e12 = E([[0, 1], [0, 0]])
    e21 = E([[0, 0], [1, 0]])
    h = E([[1, 0], [0, -1]])
    # exact closures run on integer matrices
    kept = span_closure([to_scaled(e12)[0]], to_scaled(e21)[0][None], _comm, EXACT)
    assert len(kept) == 3
    rows = np.stack([m.reshape(-1) for m in kept])
    for mat in (e12, e21, h):
        assert coords_in_rowbasis(mat.reshape(-1), rows, EXACT, DEFAULT_TOL) is not None


def test_span_closure_stops_on_fixed_span():
    a = to_scaled(E([[1, 0], [0, 2]]))[0]
    identity = to_scaled(eye_array(2, EXACT))[0][None]
    assert len(span_closure([a], identity, lambda ops, m: ops @ m, EXACT)) == 1


def test_span_closure_float_agrees():
    e12 = float_array([[0, 1], [0, 0]])
    e21 = float_array([[0, 0], [1, 0]])
    assert len(span_closure([e12], e21[None], _comm, FLOAT)) == 3


def test_closure_makes_no_image_that_the_cap_cannot_use():
    # two seeds in so(3), cap 3: one dimension is left, so the front maps
    # one seed, two images, and stops; mapping both seeds made four
    gens = float_array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                        [[0, -1, 0], [1, 0, 0], [0, 0, 0]]])
    made = []

    def counted(ops, block):
        images = _comm(ops, block)
        made.append(len(images.reshape(-1, 9)))
        return images
    kept = span_closure([gens[0], gens[1]], gens, counted, FLOAT, DEFAULT_TOL, 3)
    assert len(kept) == 3 and made == [2]


def test_closure_of_no_seed_is_empty():
    # in all three stores: the exact and the float closure keep no matrix,
    # with a cap or without, and the one over GF(p) has dimension 0
    ops = np.zeros((1, 2, 2), dtype=np.int64)
    for mode in (EXACT, FLOAT):
        for cap in (None, 3):
            assert span_closure([], ops, _comm, mode, DEFAULT_TOL, cap) == []
    assert closure_dim_mod_p([], ops, _comm, 5) == 0


def test_float_store_rejects_roundoff_and_accepts_new_directions():
    rng = np.random.default_rng(5)
    store = _FloatOrtho(40, DEFAULT_TOL)
    vecs = rng.standard_normal((6, 40))
    assert store.insert(vecs).tobytes() == vecs.tobytes()
    assert np.allclose(store.q @ store.q.T, np.eye(6), atol=1e-14)
    # a combination of stored vectors, perturbed at roundoff level, is old
    inside = rng.standard_normal(6) @ vecs
    old = [inside + 1e-15 * np.abs(inside).max() * rng.standard_normal(40), np.zeros(40)]
    assert not len(store.insert(np.stack(old)))
    assert store.dim == 6
    # a vector with a component outside the span well above rank_tol is new;
    # a block keeps its new rows as they came, in order
    new = inside + 1e-6 * rng.standard_normal(40)
    assert store.insert(np.stack([old[0], new, new])).tobytes() == new.tobytes()
    assert store.dim == 7
    assert np.allclose(store.q @ store.q.T, np.eye(7), atol=1e-14)


def test_closure_stops_at_the_cap_with_at_most_a_panel_pending(monkeypatch):
    # the exact and float holonomy closures of the gallery and its GF(p)
    # certificates: every call of the map makes at most MODP_PANEL images
    # (one matrix's when the stack is longer), all tested before the next
    # call; front expansions come first, and the map is not called once the
    # span reaches the cap
    real = linalg._closure
    ended, phases = set(), set()

    def closure(store, seed, stacks, apply, cap):
        logged = LoggedStore(store)
        tested_at, made, whole = [], [], []  # at each call of the map

        def counted(stack, rows):
            assert logged.dim < cap
            tested_at.append(len(logged.tested))
            images = apply(stack, rows).reshape(-1, seed.shape[1])
            assert len(images) <= max(linalg.MODP_PANEL, len(stack))
            made.append(len(images))
            whole.append(stack is stacks[-1])
            return images
        out = real(logged, seed, stacks, counted, cap)
        tested_at.append(len(logged.tested))
        if made:
            assert tested_at[0] == len(seed)
            # every batch but the last is tested whole, the last at most whole
            batches = list(np.diff(tested_at))
            assert batches[:-1] == made[:-1] and batches[-1] <= made[-1]
            assert whole == sorted(whole)
        ended.add((type(store).__name__, logged.dim == cap))
        phases.add((type(store).__name__, len(stacks), any(whole)))
        return out

    monkeypatch.setattr(linalg, "_closure", closure)
    for e in all_entries():
        for g in (e.algebra, to_float_algebra(e.algebra)):
            holonomy_algebra(g)
            holonomy.de_rham_splitting(g)
    # both ways a closure ends are exercised in each store but the GF(p)
    # one, whose curved blocks are all so(W) here, and both phases
    assert ended >= {("_ExactEchelon", True), ("_ExactEchelon", False), ("_FloatOrtho", True),
                     ("_FloatOrtho", False), ("_ModpBasis", True)}
    assert phases >= {("_ExactEchelon", 2, True), ("_ExactEchelon", 2, False),
                      ("_FloatOrtho", 2, True), ("_FloatOrtho", 2, False)}


# ---------------------------------------------------------------------------
# eigensplitting


def test_symmetric_eigensplit_swap_exact():
    split = selfadjoint_eigensplit(E([[0, 1], [1, 0]]), eye_array(2, EXACT), EXACT)
    assert not split.promoted_to_float
    vals = [v for v, _ in split.pairs]
    assert vals == [F(-1), F(1)]
    for val, space in split.pairs:
        assert space.dim == 1
        v = space.basis[0]
        assert v[1] == val * v[0]


def test_eigensplit_irrational_promotes():
    # eigenvalues (3 +- sqrt(5))/2 are irrational
    split = selfadjoint_eigensplit(E([[1, 1], [1, 2]]), eye_array(2, EXACT), EXACT)
    assert split.promoted_to_float
    vals = sorted(float(v) for v, _ in split.pairs)
    assert vals[0] == pytest.approx((3 - 5 ** 0.5) / 2)
    assert vals[1] == pytest.approx((3 + 5 ** 0.5) / 2)


def test_eigensplit_repeated_eigenvalue_block():
    m = E([[2, 0, 0], [0, 2, 0], [0, 0, 7]])
    split = selfadjoint_eigensplit(m, eye_array(3, EXACT), EXACT)
    dims = {float(v): s.dim for v, s in split.pairs}
    assert dims == {2.0: 2, 7.0: 1}


def test_selfadjoint_eigensplit_weighted_gram():
    # p is self-adjoint for gram diag(1,2): G p symmetric
    g = E([[1, 0], [0, 2]])
    p = E([[0, 2], [1, 0]])
    split = selfadjoint_eigensplit(p, g, EXACT)
    # eigenvalues of [[0,2],[1,0]] are +-sqrt(2): irrational, so promotion
    assert split.promoted_to_float
    fvals = sorted(float(v) for v, _ in split.pairs)
    assert fvals[0] == pytest.approx(-(2 ** 0.5))
    assert fvals[1] == pytest.approx(2 ** 0.5)


def test_selfadjoint_eigensplit_exact_rational_case():
    g = E([[2, 0], [0, 1]])
    p = E([[3, 0], [0, 5]])
    split = selfadjoint_eigensplit(p, g, EXACT)
    assert not split.promoted_to_float
    assert [v for v, _ in split.pairs] == [F(3), F(5)]


def _conjugated_diagonal(seed):
    """(p, gram, r): p = Q diag(r) Q^-1, self-adjoint for gram = Q^-T Q^-1.

    Q is a product of unit triangular matrices with entries in {-1, 0, 1},
    so it is unimodular; r repeats values near 2**55 over one denominator.
    """
    rng = random.Random(seed)
    n = seed % 9 + 1
    lower = [[1 if i == j else rng.randint(-1, 1) * (j < i) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) * (j > i) for j in range(n)] for i in range(n)]
    q = E(lower) @ E(upper)
    qinv = scaled_value(scaled_inverse(q, EXACT))
    den = rng.choice([1, 3])
    pool = [F(s * 2 ** 55 + rng.randint(-9, 9), den) for s in rng.sample([-3, -1, 1, 2, 5], 3)]
    r = [pool[0]] + [rng.choice(pool) for _ in range(n - 1)]
    return q @ np.diag(E(r)) @ qinv, qinv.T @ qinv, r


@pytest.mark.parametrize("seed", range(27))
def test_exact_eigensplit_of_conjugated_diagonal(seed):
    p, gram, r = _conjugated_diagonal(seed)
    n = len(r)
    assert max(abs(x.numerator) for x in p.reshape(-1)) > 2 ** 53
    split = selfadjoint_eigensplit(p, gram, EXACT)
    assert not split.promoted_to_float
    assert [v for v, _ in split.pairs] == sorted(set(r))
    for val, space in split.pairs:
        assert space.dim == r.count(val)
        for v in space.basis:
            assert all(x == 0 for x in p @ v - val * v)
    assert matrix_rank(np.concatenate([s.basis for _, s in split.pairs]), EXACT, DEFAULT_TOL) == n


def test_eigensplit_irrational_promotes_above_dimension_five():
    # (3 +- sqrt 5)/2 next to five rational eigenvalues
    m = np.zeros((7, 7), dtype=object)
    m[:] = F(0)
    m[:2, :2] = E([[1, 1], [1, 2]])
    for i, val in enumerate([2, 2, 3, 3, 5]):
        m[2 + i, 2 + i] = F(val)
    split = selfadjoint_eigensplit(m, eye_array(7, EXACT), EXACT)
    assert split.promoted_to_float
    assert sum(s.dim for _, s in split.pairs) == 7
    vals = [float(v) for v, _ in split.pairs]
    assert vals == pytest.approx([(3 - 5 ** 0.5) / 2, 2, (3 + 5 ** 0.5) / 2, 3, 5])


def _spd_pencil(seed, cond, values):
    """(p, gram): gram SPD with condition number ``cond``, p gram-self-adjoint
    with eigenvalues ``values`` (repeats allowed)."""
    rng = np.random.default_rng(seed)
    n = len(values)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gram = q @ np.diag(np.logspace(0, np.log10(cond), n)) @ q.T
    gram = (gram + gram.T) / 2.0
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    low = np.linalg.cholesky(gram)
    # G p = L C L^T is symmetric for symmetric C
    return np.linalg.solve(low.T, u @ np.diag(values) @ u.T @ low.T), gram


@pytest.mark.parametrize("seed, cond, values", [
    (0, 1.0, [-2.0, 0.5, 1.0, 3.0]),
    (1, 1e3, [-1.0, 1.0, 2.0, 4.0, 8.0]),
    (2, 1e6, [-3.0, -1.0, 0.25, 2.0, 5.0, 7.0]),
    (3, 1e6, [2.0, 2.0, 2.0, -1.0, -1.0, 5.0]),
    (4, 1e2, [1.0, 1.0, 1.0, 1.0]),
    (5, 1e6, [0.0, 0.0, 3.0, 3.0, 3.0, -4.0, 9.0]),
])
def test_float_eigensplit_matches_scipy_generalized_eigh(seed, cond, values):
    p, gram = _spd_pencil(seed, cond, values)
    assert np.linalg.cond(gram) == pytest.approx(cond, rel=1e-6)
    s = gram @ p
    want = scipy.linalg.eigh((s + s.T) / 2.0, gram, eigvals_only=True)
    scale = float(np.max(np.abs(want)))
    split = selfadjoint_eigensplit(p, gram, FLOAT)
    assert not split.promoted_to_float
    got = [val for val, space in split.pairs for _ in range(space.dim)]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-9 * scale
    assert [space.dim for _, space in split.pairs] == [values.count(x) for x in sorted(set(values))]
    for val, space in split.pairs:
        b = np.asarray(space.basis, dtype=np.float64).T
        # G-orthonormal columns, and p b = val b measured in the gram norm
        assert np.max(np.abs(b.T @ gram @ b - np.eye(space.dim))) <= 1e-9
        r = p @ b - val * b
        assert np.sqrt(np.max(np.diag(r.T @ gram @ r))) <= 1e-9 * scale


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("gram", [[[1, 0], [0, -1]], [[1, 1], [1, 1]], [[0, 0], [0, 1]]])
def test_eigensplit_rejects_a_gram_that_is_not_positive_definite(mode, gram):
    p = [[1, 0], [0, 2]]
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.eigh(np.array(p, dtype=np.float64), np.array(gram, dtype=np.float64))
    g, op = (E(gram), E(p)) if mode == EXACT else (float_array(gram), float_array(p))
    with pytest.raises(np.linalg.LinAlgError):
        selfadjoint_eigensplit(op, g, mode)


def test_every_corpus_commutant_element_splits(random_corpus):
    exact = 0
    for g in random_corpus:
        hol = holonomy_algebra(g)
        for p in symmetric_commutant(list(hol.basis), g.gram, EXACT, g.tol):
            split = selfadjoint_eigensplit(p, g.gram, EXACT)
            assert sum(s.dim for _, s in split.pairs) == g.dim
            if split.promoted_to_float:
                continue
            exact += 1
            for val, space in split.pairs:
                for v in space.basis:
                    assert all(x == 0 for x in p @ v - val * v)
    assert exact > 0


@pytest.mark.parametrize("index, element", [(10, 0), (91, 1), (122, 0)])
def test_commutant_element_with_large_content_stays_exact(random_corpus, index, element):
    # entries above 10**20, all multiples of one large integer: dividing it
    # out puts the candidates on a grid that the floats resolve. A positive
    # multiple of a commutant element is one too; the factor keeps the
    # content large whatever scale the commutant basis comes back in
    g = random_corpus[index]
    p = symmetric_commutant(list(holonomy_algebra(g).basis), g.gram, EXACT, g.tol)[element]
    p = p * 10 ** 12
    assert max(abs(x) for x in p.reshape(-1)) > 10 ** 20
    split = selfadjoint_eigensplit(p, g.gram, EXACT)
    assert not split.promoted_to_float
    assert sum(s.dim for _, s in split.pairs) == g.dim
    for val, space in split.pairs:
        for v in space.basis:
            assert all(x == 0 for x in p @ v - val * v)


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3))
def test_float_eigensplit_reconstructs_operator(rows):
    a = np.array(rows, dtype=np.float64)
    m = (a + a.T) / 2.0
    try:
        split = selfadjoint_eigensplit(m, eye_array(3, FLOAT), FLOAT)
    except Exception:
        return  # ambiguity band hit: acceptable for random input
    n = 3
    total = sum(s.dim for _, s in split.pairs)
    assert total == n
    # rebuild m from spectral data: sum of val * projector
    recon = np.zeros((n, n))
    for val, space in split.pairs:
        b = np.asarray(space.basis, dtype=np.float64)
        # rows are orthonormal up to the gram (here identity)
        q, _ = np.linalg.qr(b.T)
        recon += val * (q @ q.T)
    scale = max(1.0, float(np.max(np.abs(m))))
    assert float(np.max(np.abs(recon - m))) < 1e-8 * scale


def test_full_subspace_roundtrip():
    s = full_subspace(4, FLOAT)
    assert s.dim == 4 and s.ambient_dim == 4
    assert subspaces_equal(s, make_subspace(np.eye(4), 4, FLOAT))


@pytest.mark.parametrize("field", ["rank_tol", "eigen_cluster_tol"])
@pytest.mark.parametrize("value", [0.0, -1e-9, float("nan")])
def test_a_tolerance_must_be_strictly_positive(field, value):
    with pytest.raises(InputError) as exc:
        TolerancePolicy(**{field: value})
    assert str(exc.value) == f"{field} must be strictly positive"


@pytest.mark.parametrize("parts", [[], [zero_subspace(3, EXACT), zero_subspace(3, EXACT)]],
                         ids=["none", "zero_parts"])
def test_subspace_sum_refuses_zero_parts_only(parts):
    with pytest.raises(InputError) as exc:
        subspace_sum(parts)
    assert str(exc.value) == "subspace_sum needs at least one nonzero part"


def test_exact_restriction_refuses_dependent_rows():
    stack = np.array([np.identity(3, dtype=int).tolist()], dtype=object)
    rows = np.array([[1, 0, 0], [2, 0, 0]], dtype=object)
    with pytest.raises(InputError) as exc:
        restrict_operator(stack, rows, EXACT, DEFAULT_TOL)
    assert str(exc.value) == "basis rows are linearly dependent"
