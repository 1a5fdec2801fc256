import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import LoggedStore, subspaces_equal

from lcplab import holonomy, linalg
from lcplab.cli import main, run_analysis
from lcplab.errors import NumericalAmbiguityError
from lcplab.fileio import save_algebra_file
from lcplab.gallery import all_entries, sl_example
from lcplab.holonomy import (
    check_reducing_pair,
    common_kernel,
    de_rham_splitting,
    holonomy_algebra,
    nabla_commutant,
    reducibility_witness,
    symmetric_commutant,
    verify_factor_subalgebras,
)
from lcplab.lcp import weyl_connection
from lcplab.liealg import (
    bracket_table,
    curvature_tensor,
    direct_sum_algebra,
    levi_civita,
    make_algebra,
    to_float_algebra,
    transform_algebra,
)
from lcplab.linalg import Subspace, make_subspace, span_closure, zero_subspace
from lcplab.scalars import (DEFAULT_TOL, EXACT, FLOAT, exact_array, eye_array, int_commutator,
                            to_scaled, zeros_array)

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
    nabla = np.stack([conn.operator(k) for k in range(n)])
    full = span_closure([curv[i, j] for i in range(n) for j in range(i + 1, n)],
                        nabla, lambda ops, m: ops @ m - m @ ops, FLOAT, g.tol)
    hol = holonomy_algebra(g, conn)
    assert hol.dim == len(full) == n * (n - 1) // 2
    stopped = Subspace(n * n, np.stack([m.reshape(-1) for m in hol.basis]), FLOAT)
    assert subspaces_equal(stopped, Subspace(n * n, np.stack([m.reshape(-1) for m in full]), FLOAT),
                           g.tol)


class _TwoPassOrtho:
    """The float closure store with both Gram-Schmidt passes on every
    candidate, as it was before the one-pass rejections."""

    def __init__(self, width, tol):
        self.tol = tol
        self.q = np.empty((0, width))

    def insert(self, block):
        return block[[self.add(v) for v in np.asarray(block, dtype=np.float64)]]

    def add(self, v):
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            return False
        r = v - (self.q @ v) @ self.q
        r = r - (self.q @ r) @ self.q
        res = float(np.linalg.norm(r))
        if res <= self.tol.rank_tol * max(1.0, norm0):
            return False
        self.q = np.vstack([self.q, r / res])
        return True

    @property
    def dim(self):
        return self.q.shape[0]


def _closure_with(store, g, monkeypatch):
    """The float holonomy of g closed in ``store``, and the stores made."""
    made = []

    class Recording(store):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_FloatOrtho", Recording)
        return holonomy_algebra(g), made


def test_float_closure_keeps_what_two_passes_keep(random_corpus, monkeypatch):
    fundamental = next(e for e in all_entries() if e.name == "fundamental").algebra
    cases = [e.algebra for e in all_entries()] + random_corpus[:30]
    cases.append(direct_sum_algebra(sl_example(2).algebra, fundamental))
    kept = 0
    for g in map(to_float_algebra, cases):
        got, stores = _closure_with(linalg._FloatOrtho, g, monkeypatch)
        want, ref_stores = _closure_with(_TwoPassOrtho, g, monkeypatch)
        assert got.dim == want.dim, g
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.basis, want.basis)), g
        assert [s.q.tobytes() for s in stores] == [s.q.tobytes() for s in ref_stores], g
        kept += got.dim
    assert kept > 100


def test_float_store_second_pass_runs_above_half_the_cut():
    # a stored row of length sqrt(5) is no projector: each pass multiplies
    # the first coordinate by 1 - 5 = -4, so the passes can be told apart.
    # The candidates have norm below 1, so the cut is rank_tol.
    cut = DEFAULT_TOL.rank_tol
    for first, kept in ((0.6 * cut, True), (0.4 * cut, False)):
        store = linalg._FloatOrtho(2, DEFAULT_TOL)
        store.q = np.array([[np.sqrt(5.0), 0.0]])
        # the first pass leaves `first`; the second would leave 4 * first
        assert store.add(np.array([first / 4, 0.0])) is kept
        assert store.dim == 1 + kept


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


def test_one_gram_inverse_per_algebra(monkeypatch):
    # the flat reducing pair takes its commutant's G^-1 from the algebra
    g = make_algebra(bracket_table(3, {}), gram=exact_array([[2, 1, 0], [1, 2, 0], [0, 0, 1]]))
    solve = linalg._solve_scaled
    calls = []

    def counting(a, b):
        if a.shape == g.gram.shape and np.array_equal(a, g.gram):
            calls.append(1)
        return solve(a, b)
    monkeypatch.setattr(linalg, "_solve_scaled", counting)
    report, code = run_analysis(g)
    assert code == 0 and report["reducing_witness"] is not None
    assert len(calls) == 1


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


def test_float_twin_of_corpus_92_splits_as_the_exact_lane(random_corpus):
    # an ill-conditioned Gram, on which the float twin must still find the
    # exact lane's flat line, curved factor and holonomy
    g = random_corpus[92]
    exact, twin = de_rham_splitting(g), de_rham_splitting(to_float_algebra(g))
    assert exact.mode == EXACT and twin.mode == FLOAT
    for spl in (exact, twin):
        assert spl.holonomy_dim == 3
        assert spl.factor_dims == (1, 3)
        assert spl.factor_is_flat == (True, False)


# three corpus algebras whose Gram matrices have condition numbers 4.6e7,
# 3.1e8 and 4.6e5: each has a flat factor, and in float mode the
# connection operators move the curvature kernel by float noise only
_ILL_CONDITIONED = [
    (5, {(0, 1): {0: "363", 1: "357/2", 2: "39/2", 3: "387/2", 4: "-273/2"},
         (0, 2): {0: "-605", 1: "-595/2", 2: "-65/2", 3: "-645/2", 4: "455/2"},
         (0, 3): {0: "-121/2", 1: "-119/4", 2: "-13/4", 3: "-129/4", 4: "91/4"},
         (0, 4): {0: "605/2", 1: "595/4", 2: "65/4", 3: "645/4", 4: "-455/4"},
         (1, 2): {0: "968", 1: "476", 2: "52", 3: "516", 4: "-364"},
         (1, 3): {0: "242", 1: "119", 2: "13", 3: "129", 4: "-91"},
         (1, 4): {0: "-484", 1: "-238", 2: "-26", 3: "-258", 4: "182"},
         (2, 3): {0: "-242", 1: "-119", 2: "-13", 3: "-129", 4: "91"},
         (3, 4): {0: "-121", 1: "-119/2", 2: "-13/2", 3: "-129/2", 4: "91/2"}},
     [["217/16", "1", "17/4", "-181/16", "177/8"], ["1", "265/4", "-25/2", "-213/8", "401/8"],
      ["17/4", "-25/2", "49/2", "3", "11/4"], ["-181/16", "-213/8", "3", "195/8", "-483/16"],
      ["177/8", "401/8", "11/4", "-483/16", "1321/16"]]),
    (5, {(0, 1): {0: "-39", 1: "5/2", 2: "1", 3: "-3", 4: "-9"},
         (0, 3): {0: "-39", 1: "5/2", 2: "1", 3: "-3", 4: "-9"},
         (1, 3): {0: "-39", 1: "5/2", 2: "1", 3: "-3", 4: "-9"},
         (1, 4): {0: "-156", 1: "10", 2: "4", 3: "-12", 4: "-36"},
         (3, 4): {0: "-156", 1: "10", 2: "4", 3: "-12", 4: "-36"}},
     [["4", "-5", "1", "-15/4", "-35/2"], ["-5", "95/4", "-13", "5/8", "27"],
      ["1", "-13", "163/16", "3", "-8"], ["-15/4", "5/8", "3", "153/16", "55/4"],
      ["-35/2", "27", "-8", "55/4", "157/2"]]),
    (4, {(0, 2): {1: "-8/3", 2: "-2/3", 3: "-2/3"}, (0, 3): {1: "8/3", 2: "2/3", 3: "2/3"}},
     [["81/16", "-1/2", "-73/8", "133/16"], ["-1/2", "139/8", "53/4", "-149/8"],
      ["-73/8", "53/4", "101/4", "-221/8"], ["133/16", "-149/8", "-221/8", "689/16"]]),
]


@pytest.mark.parametrize("n, entries, gram", _ILL_CONDITIONED)
def test_float_twin_keeps_a_flat_factor_that_moves_by_noise(n, entries, gram):
    # a leak of the curvature kernel far below the scale of the connection
    # operators must not shrink the flat factor: the twin gets the exact
    # lane's factors, holonomy and whole verdict
    g = make_algebra(bracket_table(n, {k: {i: F(c) for i, c in v.items()}
                                       for k, v in entries.items()}),
                     gram=exact_array([[F(x) for x in row] for row in gram]))
    twin = to_float_algebra(g)
    exact, fspl = de_rham_splitting(g), de_rham_splitting(twin)
    assert exact.mode == EXACT and fspl.mode == FLOAT
    assert fspl.factor_dims == exact.factor_dims == (n - 3, 3)
    assert fspl.factor_is_flat == exact.factor_is_flat == (True, False)
    assert fspl.holonomy_dim == exact.holonomy_dim == 3
    (rep_e, code_e), (rep_f, code_f) = run_analysis(g), run_analysis(twin)
    assert code_f == code_e
    for key in ("holonomy_dim", "de_rham", "decomposability"):
        assert rep_f[key] == rep_e[key], key


def _disguised_twin(g, key):
    """The float twin of g pulled back along a rational basis change q =
    diag(10**e) U, e in 0..2, U with entries in -2..2, both drawn from
    ``key``: an isometric copy whose Gram matrix can be ill-conditioned."""
    rng = np.random.default_rng(key)
    n = g.dim
    while True:
        u = exact_array([[F(int(rng.integers(-2, 3))) for _ in range(n)] for _ in range(n)])
        if linalg.exact_det(u) != 0:
            break
    s = exact_array([F(10) ** int(rng.integers(0, 3)) for _ in range(n)])
    return to_float_algebra(transform_algebra(g, s[:, None] * u))


def _identity_residual(comm, gram):
    """How far the identity is from the span of the G-self-adjoint ``comm``,
    in the unit frame of G = L L^T, where they are symmetric: the norm of
    the identity's component outside the span, over the identity's norm."""
    m = gram.shape[0]
    if not comm:
        return 1.0
    low = np.linalg.cholesky(gram)
    rows = np.stack([(low.T @ w @ np.linalg.inv(low).T).reshape(-1) for w in comm])
    q = np.linalg.qr(rows.T)[0]
    e = np.eye(m).reshape(-1) / np.sqrt(m)
    return float(np.linalg.norm(e - q @ (q.T @ e)))


# (corpus index, draw of the basis change): Gram condition numbers 1.0e4,
# 7.0e4, 3.9e5, 8.4e5, 3.9e6, 9.8e6, 1.9e7, 4.0e7, 5.4e7, 6.8e7, 8.4e7 and
# 9.6e7. The Gram-frame constraint, G a G^-1 computed in floats, lost the
# identity on all but the first two and the ninth, and on the ninth kept
# an element 5.5e-3 off it
_DISGUISES = [(165, 0), (39, 1), (102, 4), (43, 23), (5, 19), (189, 13), (65, 5), (65, 4),
              (92, 23), (33, 1), (22, 16), (34, 7)]


@pytest.mark.parametrize("index, draw", _DISGUISES)
def test_float_commutant_keeps_the_identity_at_ill_conditioned_grams(random_corpus, index,
                                                                     draw, monkeypatch):
    # the commutant of the restricted seeds and connection operators always
    # holds the identity; in the unit frame its constraint is exactly zero
    h = _disguised_twin(random_corpus[index], (index, draw))
    assert 1e4 <= np.linalg.cond(h.gram) <= 1e8
    calls = []
    commutant = holonomy.symmetric_commutant

    def recording(ops, gram, mode, tol):
        calls.append((gram, commutant(ops, gram, mode, tol)))
        return calls[-1][1]
    monkeypatch.setattr(holonomy, "symmetric_commutant", recording)
    de_rham_splitting(h)
    assert calls
    for gram, comm in calls:
        assert _identity_residual(comm, gram) <= 1e-6, len(comm)


def test_splitting_survives_change_of_basis():
    g = hyp3_plus_line()
    q = exact_array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]])
    gt = transform_algebra(g, q)
    s = de_rham_splitting(gt)
    assert s.factor_dims == (1, 3)
    assert s.holonomy_dim == 3


def test_splitting_ignores_gram_scaling():
    for g in (hyp3_plus_line(), heisenberg3(), euclidean_motions()):
        s7 = de_rham_splitting(make_algebra(g.bracket, 7 * g.gram, g.mode, g.basis_names, g.tol))
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
        assert reducibility_witness(g, splitting=de_rham_splitting(g)) is None


def test_witness_none_for_line():
    assert reducibility_witness(abelian(1), splitting=de_rham_splitting(abelian(1))) is None


def test_witness_for_product_passes_checks():
    g = hyp3_plus_line()
    w = reducibility_witness(g, splitting=de_rham_splitting(g))
    assert w is not None
    assert {w.s1.dim, w.s2.dim} == {1, 3}
    assert check_reducing_pair(g, w.s1, w.s2).passed


def test_witness_for_flat_abelian_plane():
    g = abelian(2)
    w = reducibility_witness(g, splitting=de_rham_splitting(g))
    assert w is not None
    assert w.s1.dim + w.s2.dim == 2
    assert check_reducing_pair(g, w.s1, w.s2).passed


def test_witness_for_flat_motions():
    g = euclidean_motions()
    w = reducibility_witness(g, splitting=de_rham_splitting(g))
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
        has_witness = reducibility_witness(g, splitting=de_rham_splitting(g)) is not None
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


def test_promoted_run_says_so(tmp_path, capsys):
    path = str(tmp_path / "fundamental_over_q_sqrt2.json")
    save_algebra_file(path, restriction_of_scalars(all_entries()[0].algebra))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "metric factors: (3, 3), flat factor: none\n" in out
    assert "note: an irrational eigenvalue forced a float recomputation\n" in out


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


# ---------------------------------------------------------------------------
# split first, close per factor


def _split_first_cases(random_corpus):
    exact = ([e.algebra for e in all_entries() if e.algebra.mode == EXACT]
             + [fundamental_power(2), fundamental_power(3),
                direct_sum_algebra(sl_example(2).algebra, fundamental_power(1))]
             + random_corpus[:30])
    floats = [e.algebra for e in all_entries() if e.algebra.mode == FLOAT]
    return exact + floats + [to_float_algebra(g) for g in exact]


def _flattened(alg):
    if not alg.dim:
        return zero_subspace(alg.ambient_dim ** 2, alg.mode)
    return Subspace(alg.ambient_dim ** 2, np.stack([h.reshape(-1) for h in alg.basis]),
                    alg.mode)


def test_split_first_holonomy_and_flat_factor_match_the_closed_holonomy(random_corpus):
    # the holonomy closed inside each factor spans what the closure over the
    # whole algebra spans, and the flat factor is that closure's kernel
    for g in _split_first_cases(random_corpus):
        spl = de_rham_splitting(g)
        assert not spl.promoted_to_float, g
        hol = holonomy_algebra(g)
        assert spl.holonomy_dim == hol.dim, g
        assert subspaces_equal(_flattened(spl.holonomy), _flattened(hol), g.tol), g
        kernel = common_kernel(hol.basis, g.dim, g.mode, g.tol)
        flat = spl.flat_factor or zero_subspace(g.dim, g.mode)
        assert subspaces_equal(flat, kernel, g.tol), g


def test_flat_factor_shrinks_the_curvature_kernel_to_the_holonomy_kernel(random_corpus):
    # the common kernel of the curvature of a Weyl connection is often larger
    # than the kernel of its holonomy; the fixed-point iteration must reach
    # the latter. Levi-Civita inputs in the corpus never need a pass.
    shrunk = {EXACT: 0, FLOAT: 0}
    for k, g in enumerate(random_corpus[:40]):
        theta = [(j % 3) - 1 + (k % 2) for j in range(g.dim)]
        for h in (g, to_float_algebra(g)):
            conn = weyl_connection(h, exact_array(theta) if h.mode == EXACT
                                   else np.array(theta, dtype=float))
            seeds, nabla = holonomy._closure_inputs(h, conn)
            flat = holonomy._flat_factor(h, seeds, nabla)
            kernel = common_kernel(holonomy_algebra(h, conn).basis, h.dim, h.mode, h.tol)
            assert subspaces_equal(flat, kernel, h.tol), (k, h.mode)
            shrunk[h.mode] += common_kernel(seeds, h.dim, h.mode, h.tol).dim > flat.dim
    assert min(shrunk.values()) > 0, shrunk


def test_per_factor_closure_stops_at_each_factors_cap(monkeypatch):
    # exact sl2_semidirect + fundamental is below the so(17) cap, so its two
    # curved factors are closed one by one, each stopping at so(14) and so(3)
    caps = []
    real = holonomy.span_closure

    def recording(seed, ops, apply, mode, tol, max_dim=None):
        kept = real(seed, ops, apply, mode, tol, max_dim)
        caps.append((seed[0].size, len(kept), max_dim))
        return kept
    monkeypatch.setattr(holonomy, "span_closure", recording)
    g = direct_sum_algebra(sl_example(2).algebra, fundamental_power(1))
    spl = de_rham_splitting(g)
    assert spl.mode == EXACT and spl.factor_dims == (14, 3) and spl.holonomy_dim == 94
    assert caps == [(196, 91, 91), (9, 3, 3)]


@pytest.mark.parametrize("build", [hyperbolic3, heisenberg3, so3])
def test_split_needs_only_the_closure_of_the_seeds(build, monkeypatch):
    # the split depends on the seeds only through their closure under the
    # connection: one curvature operator of an irreducible algebra kills a
    # line and commutes with a 2-dimensional space of symmetric operators,
    # yet with the connection operators it gives the same single factor and
    # the same holonomy as all the seeds
    for g in (build(), to_float_algebra(build())):
        seeds, nabla = holonomy._closure_inputs(g, g.levi_civita)
        for seed in seeds:
            assert common_kernel([seed], 3, g.mode, g.tol).dim == 1
            assert len(symmetric_commutant([seed], g.gram, g.mode, g.tol)) == 2
            monkeypatch.setattr(holonomy, "_closure_inputs", lambda *_, s=seed: ([s], nabla))
            # no certificate, so the exact lane too splits by the commutant
            monkeypatch.setattr(holonomy, "_holonomy_dim_mod_p", lambda *_: 0)
            spl = de_rham_splitting(g)
            monkeypatch.undo()
            assert spl.factor_dims == (3,) and spl.factor_is_flat == (False,)
            assert subspaces_equal(_flattened(spl.holonomy), _flattened(holonomy_algebra(g)),
                                   g.tol)


# ---------------------------------------------------------------------------
# the closure front below the cap


def complex_hyperbolic(m):
    """The Iwasawa algebra AN of complex hyperbolic space CH^m, dimension 2m,
    with the identity Gram: basis A, X_1 .. X_{2m-2}, Z and brackets
    [A, X_i] = X_i, [A, Z] = 2Z, [X_{2j-1}, X_{2j}] = 2Z. Its metric is the
    symmetric Kähler one, so it is one irreducible curved factor with
    holonomy u(m), of dimension m^2 below dim so(2m)."""
    n, z = 2 * m, 2 * m - 1
    entries = {(0, i): {i: 1} for i in range(1, z)}
    entries[(0, z)] = {z: 2}
    entries.update({(2 * j - 1, 2 * j): {z: 2} for j in range(1, m)})
    return make_algebra(bracket_table(n, entries), basis_names=(
        "A", *(f"X{i}" for i in range(1, z)), "Z"))


@pytest.mark.parametrize("m", [2, 3])
def test_complex_hyperbolic_closures_fall_back_below_the_cap(m, monkeypatch):
    # u(m) lies below every cap: the per-factor so(2m) and holonomy_algebra's
    # so(2m), so the front of every exact and float closure stalls and the
    # full expansion runs after it. The mod-p bound expands under the front
    # alone, and still reaches dim u(m)
    expanded = {}  # store -> {(index of the stack expanded under, stacks listed)}
    real = linalg._closure

    def recording(store, seed, stacks, apply, cap):
        name, order = type(store).__name__, []

        def counted(stack, rows):
            k = next(i for i, s in enumerate(stacks) if s is stack)
            # the front's expansions come before the full stack's
            assert not order or order[-1] <= k
            order.append(k)
            if name == "_ModpBasis":
                assert len(stack) == len(linalg.CLOSURE_FRONT)
            expanded.setdefault(name, set()).add((k, len(stacks)))
            return apply(stack, rows)
        return real(store, seed, stacks, counted, cap)
    monkeypatch.setattr(linalg, "_closure", recording)
    g = complex_hyperbolic(m)
    hols = {}
    for h in (g, to_float_algebra(g)):
        spl = de_rham_splitting(h)
        assert spl.mode == h.mode and not spl.promoted_to_float
        assert spl.factor_dims == (2 * m,) and spl.factor_is_flat == (False,)
        assert spl.holonomy_dim == holonomy_algebra(h).dim == m * m
        hols[h.mode] = spl.holonomy
    seeds, nabla = holonomy._closure_inputs(g, g.levi_civita)
    assert holonomy._holonomy_dim_mod_p(to_scaled(g.gram)[0], seeds, nabla) == m * m
    assert expanded == {"_ExactEchelon": {(0, 2), (1, 2)}, "_FloatOrtho": {(0, 2), (1, 2)},
                        "_ModpBasis": {(0, 1)}}
    # with the front bypassed every exact and float closure spans the same
    monkeypatch.setattr(linalg, "CLOSURE_FRONT", ())
    for h in (g, to_float_algebra(g)):
        hol = hols[h.mode]
        assert subspaces_equal(_flattened(de_rham_splitting(h).holonomy), _flattened(hol), h.tol)
        assert subspaces_equal(_flattened(holonomy_algebra(h)), _flattened(hol), h.tol)


# ---------------------------------------------------------------------------
# the closure loop against a first-in first-out reference


def _fifo_closure(store, seed, stacks, apply, cap):
    """The reference closure, one candidate at a time: the seeds, then,
    under each stack in turn, the images ``apply(stack, m)`` of one kept
    matrix m at a time, first in first out, each tested before the next
    kept matrix is expanded; nothing once the span reaches ``cap``."""
    kept = []

    def full(batch):
        for m in batch:
            if store.dim == cap:
                return True
            if len(store.insert(m.reshape(1, -1))):
                kept.append(m)
        return store.dim == cap

    if full(seed):
        return kept
    for stack in stacks:
        expanded = 0
        while expanded < len(kept):
            if full(apply(stack, kept[expanded])):
                return kept
            expanded += 1
    return kept


def _same_rows(a, b, mode):
    # float rows bit for bit; exact ones as the same Python ints
    if mode == FLOAT:
        return [x.tobytes() for x in a] == [x.tobytes() for x in b]
    return ([x.reshape(-1).tolist() for x in a] == [x.reshape(-1).tolist() for x in b]
            and all(type(v) is int for x in a for v in x.reshape(-1).tolist()))


def _oracle_cases(random_corpus):
    fundamental = next(e for e in all_entries() if e.name == "fundamental").algebra
    exact = ([e.algebra for e in all_entries() if e.algebra.mode == EXACT] + random_corpus[:30]
             + [complex_hyperbolic(2), complex_hyperbolic(3),
                direct_sum_algebra(sl_example(2).algebra, fundamental)])
    floats = [e.algebra for e in all_entries() if e.algebra.mode == FLOAT]
    return exact, exact + floats + [to_float_algebra(g) for g in exact]


def test_closure_tests_the_candidates_of_a_fifo_queue(random_corpus, monkeypatch):
    # exact and float span closures, with the so(g) cap and without one,
    # test the same candidates in the same order as the reference and keep
    # the same matrices, to the bit; no image is made at the cap
    logs = []
    real = linalg._closure

    def logged(store, seed, stacks, apply, cap):
        logs.append(LoggedStore(store))

        def below_cap(stack, rows):
            assert store.dim < cap
            return apply(stack, rows)
        return real(logs[-1], seed, stacks, below_cap, cap)
    monkeypatch.setattr(linalg, "_closure", logged)
    stalled = 0
    for g in _oracle_cases(random_corpus)[1]:
        seeds, nabla = holonomy._closure_inputs(g, g.levi_civita)
        n = g.dim
        for cap in (n * (n - 1) // 2, None):
            got = span_closure(seeds, nabla, int_commutator, g.mode, g.tol, cap)
            store = LoggedStore(linalg._ExactEchelon() if g.mode == EXACT
                                else linalg._FloatOrtho(n * n, g.tol))
            stacks = [nabla] if cap is None else [linalg.closure_front(nabla), nabla]
            want = _fifo_closure(store, seeds, stacks, int_commutator, cap)
            assert _same_rows(got, want, g.mode), (g, cap)
            tested = logs.pop().tested if seeds else []
            assert _same_rows(tested, store.tested, g.mode), (g, cap)
            stalled += cap is not None and 0 < len(got) < cap
    assert stalled >= 4  # CH^2 and CH^3 in both lanes at least


class _ReferenceModp:
    """Rows over GF(p) in Python ints, each reduced against the earlier
    ones; a candidate is kept when it is not in their span."""

    def __init__(self, p):
        self.p, self.rows = p, []

    def insert(self, block):
        kept = []
        for cand in block.tolist():
            v = [x % self.p for x in cand]
            for piv, row in self.rows:
                if v[piv]:
                    f = v[piv]
                    v = [(x - f * y) % self.p for x, y in zip(v, row)]
            piv = next((i for i, x in enumerate(v) if x), None)
            if piv is not None:
                inv = pow(v[piv], -1, self.p)
                self.rows.append((piv, [x * inv % self.p for x in v]))
                kept.append(cand)
        return np.array(kept, dtype=np.int64).reshape(-1, block.shape[1])

    @property
    def dim(self):
        return len(self.rows)


@pytest.mark.parametrize("p", [2, 3, holonomy.CERTIFICATE_PRIME])
def test_modular_closure_dim_matches_a_fifo_reference(p, random_corpus, monkeypatch):
    # the certificate's closure over GF(p) has the dimension of the
    # reference's, on the exact oracle inputs' curved blocks
    real = holonomy.closure_dim_mod_p
    dims = []

    def compared(seed, ops, apply, prime):
        got = real(seed, ops, apply, prime)
        store = _ReferenceModp(prime)
        _fifo_closure(store, seed, [ops], lambda stack, row: apply(stack, row[None]),
                      seed.shape[1])
        assert got == store.dim
        dims.append(got)
        return got
    monkeypatch.setattr(holonomy, "closure_dim_mod_p", compared)
    monkeypatch.setattr(holonomy, "CERTIFICATE_PRIME", p)
    for g in _oracle_cases(random_corpus)[0]:
        seeds, nabla = holonomy._closure_inputs(g, g.levi_civita)
        holonomy._holonomy_dim_mod_p(to_scaled(g.gram)[0], seeds, nabla)
    assert max(dims) >= 8  # mod 2 the front is degenerate; above it, 94


def test_the_split_builds_no_triangle_indices_once_cached(monkeypatch):
    # the curvature seeds, the certificate and so(W) read np.triu_indices(n, 1)
    # from one read-only cache per n; a second split of the same size builds none
    g = sl_example(2).algebra
    de_rham_splitting(g)
    built = []
    real = np.triu_indices
    monkeypatch.setattr(np, "triu_indices", lambda *a, **k: built.append(a) or real(*a, **k))
    spl = de_rham_splitting(g)
    assert spl.factor_dims == (14,) and spl.holonomy_dim == 91 and not built, built
    iu, ju = holonomy._upper_indices(14, 1)
    assert not iu.flags.writeable and not ju.flags.writeable
    assert np.array_equal(np.stack([iu, ju]), np.stack(real(14, 1)))


def test_promoted_flat_witness_has_gram_orthonormal_bases(monkeypatch):
    # an abelian plane with Gram diag(1/3, 1/5), stored as diag(5, 3) over 15;
    # the candidate G^-1 [[0, 1], [1, 0]] has eigenvalues +-sqrt(15), so the
    # split promotes, and its bases must be orthonormal for G itself, not for
    # the stored 15 G, for check_reducing_pair's band to be that of G
    g = make_algebra(bracket_table(2, {}), gram=exact_array([[F(1, 3), 0], [0, F(1, 5)]]))
    assert g.scaled_gram[1] == 15
    cand = exact_array([[0, 3], [5, 0]])
    monkeypatch.setattr(holonomy, "_candidates", lambda comm, mode, tol, rng: iter([cand]))
    w = reducibility_witness(g, splitting=de_rham_splitting(g))
    assert w is not None and w.mode == FLOAT
    gram = to_float_algebra(g).gram
    for s in (w.s1, w.s2):
        assert np.allclose(s.basis @ gram @ s.basis.T, np.eye(s.dim), atol=1e-12)
    assert check_reducing_pair(to_float_algebra(g), w.s1, w.s2).passed
