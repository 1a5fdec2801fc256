import random
from fractions import Fraction

import numpy as np
import pytest

from lcplab import holonomy
from lcplab.cli import run_analysis
from lcplab.errors import NumericalAmbiguityError
from lcplab.gallery import all_entries, sl_example
from lcplab.holonomy import (
    ConditionReport,
    check_reducing_pair,
    common_kernel,
    de_rham_splitting,
    holonomy_algebra,
    nabla_commutant,
    reducibility_witness,
    symmetric_commutant,
    verify_factor_subalgebras,
)
from lcplab.liealg import (
    bracket_table,
    curvature_tensor,
    direct_sum_algebra,
    levi_civita,
    make_algebra,
    to_float_algebra,
    transform_algebra,
    with_gram,
)
from lcplab.linalg import Subspace, make_subspace, span_closure, subspaces_equal
from lcplab.scalars import DEFAULT_TOL, EXACT, FLOAT, exact_array, eye_array, zeros_array

F = Fraction


def hyperbolic3():
    return make_algebra(bracket_table(3, {(2, 0): {0: 1}, (2, 1): {1: -1}}),
                        basis_names=("X", "Y", "T"))


def hyperbolic2():
    return make_algebra(bracket_table(2, {(0, 1): {1: 1}}))


def heisenberg3():
    return make_algebra(bracket_table(3, {(0, 1): {2: 1}}))


def so3():
    return make_algebra(bracket_table(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}))


def abelian(n):
    return make_algebra(bracket_table(n, {}))


def euclidean_motions():
    # [T, X] = Y, [T, Y] = -X: flat but with a nonzero connection along T
    return make_algebra(bracket_table(3, {(2, 0): {1: 1}, (2, 1): {0: -1}}))


def hyp3_plus_line():
    return direct_sum_algebra(hyperbolic3(), abelian(1))


# ---------------------------------------------------------------------------
# holonomy algebras


def test_hyperbolic3_holonomy_is_so3():
    hol = holonomy_algebra(hyperbolic3())
    assert hol.dim == 3
    # every member is antisymmetric for the identity gram
    for m in hol.basis:
        assert np.array_equal(m, -m.T)


def test_hyperbolic2_holonomy_dim_one():
    assert holonomy_algebra(hyperbolic2()).dim == 1


def test_heisenberg_holonomy_is_so3():
    assert holonomy_algebra(heisenberg3()).dim == 3


def test_flat_algebras_have_zero_holonomy():
    assert holonomy_algebra(abelian(3)).dim == 0
    assert holonomy_algebra(euclidean_motions()).dim == 0


def test_product_holonomy_adds_up():
    g = direct_sum_algebra(hyperbolic3(), hyperbolic3())
    assert holonomy_algebra(g).dim == 6


def test_holonomy_float_matches_exact():
    g = hyperbolic3()
    assert holonomy_algebra(to_float_algebra(g)).dim == holonomy_algebra(g).dim


@pytest.mark.parametrize("name", [e.name for e in all_entries()])
def test_float_holonomy_dim_matches_exact_on_gallery(name):
    g = next(e for e in all_entries() if e.name == name).algebra
    assert holonomy_algebra(to_float_algebra(g)).dim == holonomy_algebra(g).dim


def test_float_holonomy_dim_matches_exact_on_corpus_slice(random_corpus):
    for g in random_corpus[:30]:
        assert holonomy_algebra(to_float_algebra(g)).dim == holonomy_algebra(g).dim


def test_float_closure_stop_at_so_g_keeps_the_span():
    # hol = so(14): the closure stops at dim so(g) and must still span
    # what the full closure, run over every candidate, spans
    g = to_float_algebra(sl_example(2).algebra)
    n = g.dim
    conn = levi_civita(g)
    curv = curvature_tensor(g, conn)
    nabla = [conn.operator(k) for k in range(n)]
    full = span_closure([curv[i, j] for i in range(n) for j in range(i + 1, n)],
                        lambda m: [a @ m - m @ a for a in nabla], FLOAT, g.tol)
    hol = holonomy_algebra(g, conn)
    assert hol.dim == full.dim == n * (n - 1) // 2
    stopped = Subspace(n * n, np.stack([m.reshape(-1) for m in hol.basis]), FLOAT)
    assert subspaces_equal(stopped, full, g.tol)


def test_common_kernel_of_no_ops_is_everything():
    assert common_kernel([], 4, EXACT, DEFAULT_TOL).dim == 4


def test_common_kernel_of_product():
    g = hyp3_plus_line()
    hol = holonomy_algebra(g)
    ker = common_kernel(hol.basis, 4, EXACT, DEFAULT_TOL)
    assert ker.dim == 1
    assert subspaces_equal(ker, make_subspace(exact_array([[0, 0, 0, 1]]), 4, EXACT))


# ---------------------------------------------------------------------------
# symmetric commutant


def test_commutant_of_nothing_is_all_selfadjoint():
    comm = symmetric_commutant([], np.eye(2), FLOAT, DEFAULT_TOL)
    assert len(comm) == 3
    comm = symmetric_commutant([], exact_array([[1, 0], [0, 2]]), EXACT, DEFAULT_TOL)
    assert len(comm) == 3


def test_commutant_of_irreducible_action_is_scalar():
    g = hyperbolic3()
    hol = holonomy_algebra(g)
    comm = symmetric_commutant(hol.basis, g.gram, EXACT, DEFAULT_TOL)
    assert len(comm) == 1


def test_commutant_of_product_has_dim_two():
    g = hyp3_plus_line()
    hol = holonomy_algebra(g)
    comm = symmetric_commutant(hol.basis, g.gram, EXACT, DEFAULT_TOL)
    assert len(comm) == 2


def test_commutant_members_commute_and_are_selfadjoint():
    g = hyp3_plus_line()
    hol = holonomy_algebra(g)
    comm = symmetric_commutant(hol.basis, g.gram, EXACT, DEFAULT_TOL)
    for p in comm:
        s = g.gram @ p
        assert np.array_equal(s, s.T)
        for a in hol.basis:
            assert all(x == 0 for x in (p @ a - a @ p).reshape(-1))


def test_nabla_commutant_flat_rotation_plane():
    comm = nabla_commutant(euclidean_motions())
    assert len(comm) == 2


def test_scalar_test_does_not_divide():
    # the mean of an int diagonal is a float, and 2**60 + 1 and 2**60 + 2
    # round to the same float
    p = np.diag(np.array([2**60 + 1, 2**60 + 2], dtype=object))
    for q in (p, exact_array(p)):
        assert not holonomy._is_scalar_matrix(q, EXACT, DEFAULT_TOL)
    assert holonomy._is_scalar_matrix(np.diag(np.array([2**60 + 1] * 2, dtype=object)),
                                      EXACT, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# splitting


def test_irreducible_examples_have_one_factor():
    for g in (hyperbolic3(), hyperbolic2(), heisenberg3(), so3()):
        s = de_rham_splitting(g)
        assert s.factor_dims == (g.dim,)
        assert s.factor_is_flat == (False,)
        assert s.flat_factor is None
        assert not s.promoted_to_float


def test_fully_flat_is_one_flat_block():
    for g in (abelian(3), euclidean_motions()):
        s = de_rham_splitting(g)
        assert s.factor_dims == (3,)
        assert s.factor_is_flat == (True,)
        assert s.flat_factor is not None


def test_product_splits_flat_first():
    s = de_rham_splitting(hyp3_plus_line())
    assert s.factor_dims == (1, 3)
    assert s.factor_is_flat == (True, False)
    assert subspaces_equal(s.factors[0], make_subspace(exact_array([[0, 0, 0, 1]]), 4, EXACT))


def test_double_product_ordering_by_support():
    g = direct_sum_algebra(hyperbolic3(), hyperbolic3())
    s = de_rham_splitting(g)
    assert s.factor_dims == (3, 3)
    assert s.factor_is_flat == (False, False)
    # both factors are rational, so the exact eigensplit keeps it exact
    assert not s.promoted_to_float
    lo = [float(abs(x)) for x in s.factors[0].basis[:, 3:].reshape(-1)]
    assert max(lo) < 1e-8  # first factor is supported on the first copy


def test_mixed_product_exact_stays_exact():
    g = direct_sum_algebra(hyperbolic2(), abelian(2))
    s = de_rham_splitting(g)
    assert s.factor_dims == (2, 2)
    assert s.factor_is_flat == (True, False)
    assert not s.promoted_to_float
    assert s.mode == EXACT
    assert subspaces_equal(s.factors[0], make_subspace(exact_array([[0, 0, 1, 0], [0, 0, 0, 1]]), 4, EXACT))


def test_three_way_product():
    g = direct_sum_algebra(direct_sum_algebra(hyperbolic2(), hyperbolic2()), abelian(1))
    s = de_rham_splitting(g)
    assert s.factor_dims == (1, 2, 2)
    assert s.factor_is_flat == (True, False, False)
    # support ordering puts the first plane before the second
    assert s.factors[1].basis[0][0] != 0 or s.factors[1].basis[1][0] != 0


def test_float_sort_key_is_basis_free():
    # one float subspace, its basis mixed by a rotation: the same key
    rng = np.random.default_rng(11)
    b = rng.standard_normal((3, 6))
    b[:, 0] = 0
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    keys = [holonomy._sort_key(Subspace(6, rows, FLOAT), FLOAT, DEFAULT_TOL)
            for rows in (b, rot @ b)]
    assert keys[0] == keys[1]
    assert keys[0][1] == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("name", [e.name for e in all_entries() if e.algebra.mode == EXACT])
def test_float_sort_key_equals_the_exact_one(name):
    g = next(e for e in all_entries() if e.name == name).algebra
    exact, float_twin = de_rham_splitting(g), de_rham_splitting(to_float_algebra(g))
    assert exact.mode == EXACT and float_twin.factor_dims == exact.factor_dims
    for fe, ff in zip(exact.factors, float_twin.factors):
        assert holonomy._sort_key(ff, FLOAT, g.tol) == holonomy._sort_key(fe, EXACT, g.tol)


def test_splitting_deterministic_across_seeds():
    g = direct_sum_algebra(hyperbolic2(), hyperbolic2())
    s0 = de_rham_splitting(g, seed=0)
    s1 = de_rham_splitting(g, seed=17)
    assert s0.factor_dims == s1.factor_dims
    for f0, f1 in zip(s0.factors, s1.factors):
        assert subspaces_equal(f0, f1)


def test_splitting_survives_change_of_basis():
    g = hyp3_plus_line()
    q = exact_array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]])
    gt = transform_algebra(g, q)
    s = de_rham_splitting(gt)
    assert s.factor_dims == (1, 3)
    assert s.holonomy_dim == 3


def test_splitting_ignores_gram_scaling():
    for g in (hyp3_plus_line(), heisenberg3(), euclidean_motions()):
        s7 = de_rham_splitting(with_gram(g, 7 * g.gram))
        s1 = de_rham_splitting(g)
        assert s7.factor_dims == s1.factor_dims
        assert s7.factor_is_flat == s1.factor_is_flat


def test_splitting_float_product():
    g = to_float_algebra(hyp3_plus_line())
    s = de_rham_splitting(g)
    assert s.factor_dims == (1, 3)
    assert s.factor_is_flat == (True, False)


def test_factors_are_subalgebras():
    for g in (hyp3_plus_line(), heisenberg3(), euclidean_motions(),
              direct_sum_algebra(hyperbolic2(), abelian(2))):
        s = de_rham_splitting(g)
        assert verify_factor_subalgebras(g, s) == [True] * len(s.factors)


# ---------------------------------------------------------------------------
# reducing pairs


def test_check_pair_on_honest_product():
    g = hyp3_plus_line()
    s1 = make_subspace(exact_array([[0, 0, 0, 1]]), 4, EXACT)
    s2 = make_subspace(exact_array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), 4, EXACT)
    rep = check_reducing_pair(g, s1, s2)
    assert rep.passed


def test_check_pair_heisenberg_needs_polarization():
    # the cross form vanishes on each basis vector of s2 alone but not on
    # their sum, so only the polarized test catches this
    g = heisenberg3()
    s1 = make_subspace(exact_array([[1, 0, 0]]), 3, EXACT)
    s2 = make_subspace(exact_array([[0, 1, 0], [0, 0, 1]]), 3, EXACT)
    rep = check_reducing_pair(g, s1, s2)
    assert rep.orthogonal and rep.complementary
    assert rep.s1_subalgebra and rep.s2_subalgebra
    assert rep.cross_s1
    assert not rep.cross_s2
    assert not rep.passed


def test_check_pair_so3_fails_only_subalgebra():
    g = so3()
    s1 = make_subspace(exact_array([[1, 0, 0]]), 3, EXACT)
    s2 = make_subspace(exact_array([[0, 1, 0], [0, 0, 1]]), 3, EXACT)
    rep = check_reducing_pair(g, s1, s2)
    assert rep.orthogonal and rep.complementary and rep.s1_subalgebra
    assert not rep.s2_subalgebra
    assert rep.cross_s1 and rep.cross_s2
    assert not rep.passed


def test_check_pair_rejects_non_orthogonal():
    g = abelian(2)
    s1 = make_subspace(exact_array([[1, 0]]), 2, EXACT)
    s2 = make_subspace(exact_array([[1, 1]]), 2, EXACT)
    rep = check_reducing_pair(g, s1, s2)
    assert not rep.orthogonal
    assert rep.complementary


def test_witness_none_for_irreducible():
    for g in (hyperbolic3(), hyperbolic2(), heisenberg3(), so3()):
        assert reducibility_witness(g) is None


def test_witness_none_for_line():
    assert reducibility_witness(abelian(1)) is None


def test_witness_for_product_passes_checks():
    g = hyp3_plus_line()
    w = reducibility_witness(g)
    assert w is not None
    assert {w.s1.dim, w.s2.dim} == {1, 3}
    assert check_reducing_pair(g, w.s1, w.s2).passed


def test_witness_for_flat_abelian_plane():
    g = abelian(2)
    w = reducibility_witness(g)
    assert w is not None
    assert w.s1.dim + w.s2.dim == 2
    assert check_reducing_pair(g, w.s1, w.s2).passed


def test_witness_for_flat_motions():
    g = euclidean_motions()
    w = reducibility_witness(g)
    assert w is not None
    assert w.s1.dim + w.s2.dim == 3
    gg = g if w.mode == EXACT else to_float_algebra(g)
    assert check_reducing_pair(gg, w.s1, w.s2).passed


def test_witness_agrees_with_commutant_dimension():
    cases = [hyperbolic3(), heisenberg3(), so3(), abelian(1), abelian(2),
             euclidean_motions(), hyp3_plus_line(),
             direct_sum_algebra(hyperbolic2(), abelian(2))]
    for g in cases:
        hol = holonomy_algebra(g)
        comm = symmetric_commutant(hol.basis, g.gram, g.mode, g.tol)
        has_witness = reducibility_witness(g) is not None
        assert has_witness == (len(comm) >= 2)


# ---------------------------------------------------------------------------
# one commutant, one eigensplit


def fundamental_power(k):
    fund = next(e for e in all_entries() if e.name == "fundamental").algebra
    g = fund
    for _ in range(k - 1):
        g = direct_sum_algebra(g, fund)
    return g


def restriction_of_scalars(h):
    """h over Q(sqrt 2), read over Q: basis e_i, then sqrt(2) e_i.

    The metric is the trace form of h's, so over R this is h x h with the
    product metric. Its two curved factors are the eigenspaces of
    multiplication by sqrt 2, and no rational basis spans either of them.
    """
    n = h.dim
    e, f = slice(0, n), slice(n, 2 * n)
    c = zeros_array((2 * n, 2 * n, 2 * n), h.mode)
    c[e, e, e] = h.bracket
    c[e, f, f] = h.bracket
    c[f, e, f] = h.bracket
    c[f, f, e] = 2 * h.bracket
    gram = zeros_array((2 * n, 2 * n), h.mode)
    gram[e, e] = 2 * h.gram
    gram[f, f] = 4 * h.gram
    return make_algebra(c, gram, h.mode)


@pytest.mark.parametrize("build", [
    lambda: fundamental_power(3),
    lambda: to_float_algebra(fundamental_power(3)),
    lambda: to_float_algebra(direct_sum_algebra(sl_example(2).algebra, fundamental_power(1))),
], ids=["fundamental^3", "fundamental^3_float", "sl2_semidirect+fundamental_float"])
def test_one_commutant_per_split(build, monkeypatch):
    # a commutant per eigenspace would make 2k - 1 calls for k factors
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return symmetric_commutant(*args, **kwargs)
    monkeypatch.setattr(holonomy, "symmetric_commutant", counting)
    spl = de_rham_splitting(build())
    assert len(spl.factors) >= 2
    assert len(calls) == 1


@pytest.mark.parametrize("k, mode, seeds", [(6, FLOAT, range(5)), (8, FLOAT, range(5)),
                                            (4, EXACT, range(3))])
def test_many_factors_in_one_split(k, mode, seeds):
    # the eigensplit must find an element of the commutant with k distinct
    # eigenvalues among its basis and random integer combinations of it
    g = fundamental_power(k)
    if mode == FLOAT:
        g = to_float_algebra(g)
    for seed in seeds:
        spl = de_rham_splitting(g, seed=seed)
        assert spl.factor_dims == (3,) * k
        assert spl.factor_is_flat == (False,) * k
        assert spl.mode == mode and not spl.promoted_to_float


def block_projections(k):
    """The exact projections onto the k summands of fundamental^k."""
    out = []
    for j in range(k):
        p = zeros_array((3 * k, 3 * k), EXACT)
        for i in range(3 * j, 3 * j + 3):
            p[i, i] = 1
        out.append(p)
    return out


def test_exact_commutant_of_fundamental_power_is_the_block_projections():
    g = fundamental_power(4)
    comm = symmetric_commutant(np.stack(holonomy_algebra(g).basis), g.gram, EXACT, g.tol)
    assert len(comm) == 4
    assert all((p == q).all() for p, q in zip(comm, block_projections(4)))


@pytest.mark.parametrize("k", [8, 10])
def test_equal_block_projections_split_at_every_seed(k):
    # the exact commutant basis of fundamental^k (see above): the basis
    # elements have two eigenspaces each, and a combination has k only when
    # its k coefficients are distinct; the exact commutant of fundamental^8
    # costs seconds, so the split starts from the basis it returns
    comm = block_projections(k)
    gram = eye_array(3 * k, EXACT)
    for seed in range(10):
        split = holonomy._first_eigensplit(comm, gram, EXACT, DEFAULT_TOL, random.Random(seed),
                                           "de Rham splitting", k)
        assert [eig.dim for _, eig in split.pairs] == [3] * k
        assert not split.promoted_to_float


def test_too_few_eigenspaces_names_the_count():
    with pytest.raises(NumericalAmbiguityError) as err:
        holonomy._first_eigensplit(block_projections(2), eye_array(6, EXACT), EXACT, DEFAULT_TOL,
                                   random.Random(0), "de Rham splitting", 3)
    assert str(err.value).startswith("de Rham splitting: ")
    assert "3 stable eigenspaces" in str(err.value)


@pytest.mark.parametrize("name, factor_dims", [("fundamental", [3, 3]),
                                               ("product", [2, 3, 3])])
def test_promotion_through_de_rham_splitting(name, factor_dims):
    g = restriction_of_scalars(next(e for e in all_entries() if e.name == name).algebra)
    report, code = run_analysis(g)
    assert code == 0
    assert report["holonomy_dim"] == 6
    assert report["de_rham"]["factor_dims"] == factor_dims
    assert report["de_rham"]["promoted_to_float"] is True
    twin, twin_code = run_analysis(to_float_algebra(g))
    assert twin_code == code
    assert twin["mode"] == FLOAT and twin["de_rham"]["promoted_to_float"] is False
    for rep in (report, twin):
        del rep["mode"]
        del rep["de_rham"]["promoted_to_float"]
    assert report == twin


# ---------------------------------------------------------------------------
# verdicts on the large float inputs


@pytest.mark.parametrize("second,hol_dim,factor_dims,pair", [
    (None, 91, [14], None),
    ("fundamental", 94, [14, 3], (14, 3)),
    ("sl2_semidirect", 182, [14, 14], (14, 14)),
], ids=["sl2_semidirect", "plus_fundamental", "plus_sl2_semidirect"])
def test_large_float_verdicts(second, hol_dim, factor_dims, pair):
    # float twins of sl2_semidirect and of its sums with a gallery entry
    g = sl_example(2).algebra
    if second is not None:
        g = direct_sum_algebra(g, next(e for e in all_entries() if e.name == second).algebra)
    g = to_float_algebra(g)
    spl = de_rham_splitting(g)
    assert spl.holonomy_dim == hol_dim
    assert list(spl.factor_dims) == factor_dims
    assert spl.flat_factor is None
    w = reducibility_witness(g, splitting=spl)
    assert (None if w is None else (w.s1.dim, w.s2.dim)) == pair
