import random
from fractions import Fraction

import numpy as np
import pytest

from lcplab import liealg
from lcplab.base import leading_minors
from lcplab.cli import run_analysis
from lcplab.errors import InputError
from lcplab.gallery import fundamental_example
from lcplab.liealg import (
    LEVI_CIVITA,
    ad_matrix,
    bracket_table,
    bracket_vec,
    curvature_operator,
    inner,
    is_ideal,
    is_subalgebra,
    is_unimodular,
    levi_civita,
    make_algebra,
    metric_defect,
    to_float_algebra,
    torsion_defect,
    transform_algebra,
    validate_algebra,
)
from lcplab.linalg import exact_det, is_zero_matrix, make_subspace, residual_band, scale_of
from lcplab.scalars import DEFAULT_TOL, EXACT, FLOAT, array_for_mode, exact_array

F = Fraction


def hyperbolic3():
    # X = e0, Y = e1, T = e2 with [T, X] = X and [T, Y] = -Y
    c = bracket_table(3, {(2, 0): {0: 1}, (2, 1): {1: -1}})
    return make_algebra(c, basis_names=("X", "Y", "T"))


def heisenberg3():
    c = bracket_table(3, {(0, 1): {2: 1}})
    return make_algebra(c)


def so3():
    c = bracket_table(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
    return make_algebra(c)


def affine_line():
    c = bracket_table(2, {(0, 1): {1: 1}})
    return make_algebra(c)


# ---------------------------------------------------------------------------
# construction and bracket arithmetic


def test_bracket_table_fills_antisymmetric_entry():
    c = bracket_table(3, {(0, 1): {2: 1}})
    assert c[0, 1, 2] == 1 and c[1, 0, 2] == -1


def test_bracket_table_rejects_diagonal_key():
    with pytest.raises(InputError):
        bracket_table(2, {(1, 1): {0: 1}})


@pytest.mark.parametrize("entries", [
    {(-1, 0): {0: 1}},  # would write [e_2, e_0]
    {(3, 0): {0: 1}},  # was a bare IndexError
    {(0, 1): {-3: 1}},  # would write the e_0 coefficient
], ids=["negative-pair-index", "pair-index-past-n", "negative-coefficient-key"])
def test_bracket_table_refuses_an_index_outside_range_n(entries):
    with pytest.raises(InputError, match="out of range for dimension 3"):
        bracket_table(3, entries)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_transform_algebra_refuses_a_singular_basis_change_in_both_lanes(mode):
    g = make_algebra(bracket_table(3, {(2, 0): {0: 1}, (2, 1): {1: -1}}, mode), mode=mode)
    q = array_for_mode([[1, 0, 0], [0, 1, 0], [1, 1, 0]], mode)
    with pytest.raises(InputError, match="matrix is singular; cannot invert"):
        transform_algebra(g, q)


def test_bracket_vec_bilinearity_witness():
    g = so3()
    x = exact_array([1, 2, 0])
    y = exact_array([0, 1, 1])
    # [x, y] computed by hand: [e0+2e1, e1+e2] = e2 + e0 + 2e0... redo:
    # [e0, e1] = e2, [e0, e2] = -e1, [e1, e2] = e0 (twice)
    # total = e2 - e1 + 2 e0
    v = bracket_vec(g, x, y)
    assert list(v) == [F(2), F(-1), F(1)]


def test_ad_matrix_column_convention():
    g = hyperbolic3()
    ad_t = ad_matrix(g, 2)
    x = exact_array([1, 0, 0])
    assert list(ad_t @ x) == list(bracket_vec(g, exact_array([0, 0, 1]), x))


def test_make_algebra_shape_checks():
    with pytest.raises(InputError):
        make_algebra(np.zeros((2, 2)))
    with pytest.raises(InputError):
        make_algebra(bracket_table(2, {}), gram=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InputError):
        make_algebra(bracket_table(2, {}), basis_names=("a",))


def test_make_algebra_rejects_float_arrays_in_exact_mode():
    # float64 arrays are the float lane's scaled form, so the exact lane
    # would take them as they are; they must be refused on the way in
    with pytest.raises(InputError, match="float scalar"):
        make_algebra(np.zeros((2, 2, 2)), mode="exact")
    with pytest.raises(InputError, match="float scalar"):
        make_algebra(bracket_table(2, {}), gram=np.eye(2), mode="exact")


def test_inner_uses_gram():
    g = make_algebra(bracket_table(2, {}), gram=[[2, 0], [0, 3]])
    assert inner(g, exact_array([1, 1]), exact_array([1, 1])) == 5


# ---------------------------------------------------------------------------
# validation


def test_validate_passes_on_good_algebras():
    for g in (hyperbolic3(), heisenberg3(), so3()):
        assert validate_algebra(g).passed


def test_validate_reports_antisymmetry_violation():
    c = bracket_table(3, {(0, 1): {2: 1}})
    c[1, 0, 2] = F(0)  # break the mirrored entry
    g = make_algebra(c, check=False)
    rep = validate_algebra(g)
    assert rep.antisymmetry_violations == ((0, 1),)
    assert not rep.passed
    assert rep.failures() == ["antisymmetry fails at pairs [(0, 1)]"]


def test_validate_reports_jacobi_violation():
    # [e0,e1] = e1, [e0,e2] = e2, [e2,e0]... plus [e1,e2] = e0 breaks jacobi
    c = bracket_table(3, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    g = make_algebra(c, check=False)
    rep = validate_algebra(g)
    assert rep.jacobi_violations == ((0, 1, 2),)


def test_validate_reports_indefinite_gram():
    g = make_algebra(bracket_table(2, {}), gram=[[1, 2], [2, 1]], check=False)
    rep = validate_algebra(g)
    assert rep.gram_symmetric and not rep.gram_positive_definite


def test_validate_reports_asymmetric_gram():
    g = make_algebra(bracket_table(2, {}), gram=[[1, 1], [0, 1]], check=False)
    assert not validate_algebra(g).gram_symmetric


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("gram, messages", [
    # a Gram matrix that is not symmetric is not positive definite either
    ([[1, 1], [0, 1]], ["gram matrix is not symmetric", "gram matrix is not positive definite"]),
    ([[1, 2], [2, 1]], ["gram matrix is not positive definite"]),
])
def test_gram_failures_are_named_and_refused(mode, gram, messages):
    g = make_algebra(bracket_table(2, {}, mode), gram=gram, mode=mode, check=False)
    assert validate_algebra(g).failures() == messages
    with pytest.raises(InputError, match="; ".join(messages)):
        make_algebra(bracket_table(2, {}, mode), gram=gram, mode=mode)


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_bracket_is_refused_by_name(check, bad):
    # a NaN passes the square-scale check unless it is named: the largest
    # magnitude skips it, and every zero test on it is False
    c = bracket_table(2, {(0, 1): {1: bad}}, FLOAT)
    with pytest.raises(InputError, match=r"float entry -?(nan|inf) is not a finite number"):
        make_algebra(c, mode=FLOAT, check=check)
    with pytest.raises(InputError, match="not a finite number"):
        make_algebra(bracket_table(2, {}, FLOAT), gram=[[1.0, 0.0], [0.0, bad]],
                     mode=FLOAT, check=check)


def _minors_by_determinants(gram):
    """Sylvester's criterion from its definition: one determinant per order."""
    return all(exact_det(gram[:k, :k]) > 0 for k in range(1, gram.shape[0] + 1))


def _spd_gram(rng, n):
    q = np.array([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                  for _ in range(n)], dtype=object)
    return q @ q.T + np.identity(n, dtype=int) * F(1, rng.randint(1, 5))


def test_positive_definite_minors_agree_with_the_determinants():
    rng = random.Random(11)
    grams = [_spd_gram(rng, n) for n in range(1, 7) for _ in range(5)]
    # a zero leading minor, then negative ones of each order
    grams.append(exact_array([[0, 1], [1, 2]]))
    grams.append(exact_array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    grams.append(exact_array([[-1, 0], [0, 1]]))
    grams.append(exact_array([[1, 2, 0], [2, 3, 0], [0, 0, 1]]))
    grams.append(exact_array([["1/2", 0, 0], [0, 1, 0], [0, 0, "-1/3"]]))
    verdicts = []
    for gram in grams:
        want = _minors_by_determinants(gram)
        assert liealg._is_positive_definite(gram, EXACT, DEFAULT_TOL) == want
        verdicts.append(want)
    assert verdicts.count(True) == 30 and verdicts.count(False) == 5
    # the minors are those of the scaled integer matrix, up to positive
    # factors, and stop after the first zero one
    assert list(leading_minors([[0, 1], [1, 2]])) == [0]
    assert list(leading_minors([[2, 1, 0], [1, 2, 1], [0, 1, 2]])) == [2, 3, 4]
    assert list(leading_minors([[1, 2, 0], [2, 3, 0], [0, 0, 1]])) == [1, -1, -1]


def _bracket_failures_one_test_each(g):
    """validate_algebra's bracket failures from one zero test per pair
    i <= j and per triple i < j < k, as they were once computed."""
    n = g.dim
    c = g.scaled_bracket[0]
    sc = scale_of(c)
    sym = c + np.transpose(c, (1, 0, 2))
    anti = tuple((i, j) for i in range(n) for j in range(i, n)
                 if not is_zero_matrix(sym[i, j], g.mode, g.tol, scale=sc))
    t = np.tensordot(c, c, axes=(2, 0))
    total = t + np.transpose(t, (2, 0, 1, 3)) + np.transpose(t, (1, 2, 0, 3))
    jac = tuple((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
                if not is_zero_matrix(total[i, j, k], g.mode, g.tol, scale=sc * sc))
    return anti, jac


def _broken_brackets(random_corpus):
    """Corpus brackets with entries changed, in both lanes: by one, and by a
    float just below and just above the zero band. A NaN entry is refused
    when the algebra is built (test_nan_bracket_is_refused_by_name)."""
    rng = np.random.default_rng(7)
    for g in random_corpus[:40]:
        n = g.dim
        for _ in range(2):
            c = g.bracket.copy()
            i, j, k = (int(x) for x in rng.integers(0, n, size=3))
            c[i, j, k] += 1
            yield make_algebra(c, gram=g.gram, check=False)
        h = to_float_algebra(g)
        band = residual_band(h.tol) * scale_of(h.bracket)
        for bump in (0.5 * band, 2 * band):
            c = h.bracket.copy()
            i, j, k = (int(x) for x in rng.integers(0, n, size=3))
            c[i, j, k] += bump
            yield make_algebra(c, gram=h.gram, mode=FLOAT, check=False)


def test_validate_lists_the_failures_of_one_test_each(random_corpus):
    failing = 0
    cases = [make_algebra(bracket_table(0, {}), check=False)]
    cases += [*random_corpus, *_broken_brackets(random_corpus)]
    for g in cases:
        for h in (g, to_float_algebra(g)) if g.mode == EXACT else (g,):
            rep = validate_algebra(h)
            want = _bracket_failures_one_test_each(h)
            assert (rep.antisymmetry_violations, rep.jacobi_violations) == want, h
            assert all(type(x) is int for t in rep.antisymmetry_violations + rep.jacobi_violations
                       for x in t)
            failing += bool(want[0] or want[1])
    assert failing > 100


def test_make_algebra_raises_on_invalid_when_checking():
    c = bracket_table(3, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    with pytest.raises(InputError):
        make_algebra(c)


def test_gallery_built_analysis_validates_once(monkeypatch):
    # make_algebra validates the entry; run_analysis reads the same report
    # instead of validating the algebra a second time
    validated = []
    real = liealg._validation_report
    monkeypatch.setattr(liealg, "_validation_report", lambda g: validated.append(g) or real(g))
    entry = fundamental_example.__wrapped__()  # a fresh build, not the shared cached one
    assert validated.count(entry.algebra) == 1
    report, code = run_analysis(entry.algebra, entry.lcp)
    assert code == 0 and report["validation"]["passed"]
    assert validated.count(entry.algebra) == 1


def test_float_validation_tolerates_roundoff():
    c = bracket_table(3, {(0, 1): {2: 1}}, mode=FLOAT)
    c[1, 0, 2] += 1e-13
    g = make_algebra(c, mode=FLOAT, check=False)
    assert validate_algebra(g).passed


# ---------------------------------------------------------------------------
# unimodularity


def test_unimodular_examples():
    assert is_unimodular(hyperbolic3())
    assert is_unimodular(heisenberg3())
    assert is_unimodular(so3())


def test_affine_line_not_unimodular():
    assert not is_unimodular(affine_line())


# ---------------------------------------------------------------------------
# subalgebras and ideals


def test_heisenberg_center_is_ideal():
    g = heisenberg3()
    center = make_subspace(exact_array([[0, 0, 1]]), 3, EXACT)
    assert is_subalgebra(g, center)
    assert is_ideal(g, center)


def test_hyperbolic_span_x_is_ideal_span_t_is_not():
    g = hyperbolic3()
    span_x = make_subspace(exact_array([[1, 0, 0]]), 3, EXACT)
    span_t = make_subspace(exact_array([[0, 0, 1]]), 3, EXACT)
    assert is_ideal(g, span_x)
    assert is_subalgebra(g, span_t)
    assert not is_ideal(g, span_t)


def test_so3_has_no_two_dim_subalgebra():
    g = so3()
    s = make_subspace(exact_array([[1, 0, 0], [0, 1, 0]]), 3, EXACT)
    assert not is_subalgebra(g, s)


# ---------------------------------------------------------------------------
# Levi-Civita connection: frozen tables


def test_levi_civita_hyperbolic3_table():
    g = hyperbolic3()
    conn = levi_civita(g)
    assert conn.kind == LEVI_CIVITA
    expected = np.zeros((3, 3, 3), dtype=object)
    expected[:] = F(0)
    expected[0, 0, 2] = F(1)   # D_X X = T
    expected[1, 1, 2] = F(-1)  # D_Y Y = -T
    expected[0, 2, 0] = F(-1)  # D_X T = -X
    expected[1, 2, 1] = F(1)   # D_Y T = Y
    assert np.array_equal(conn.coeffs, expected)


def test_levi_civita_heisenberg_halves():
    g = heisenberg3()
    conn = levi_civita(g)
    assert conn.coeffs[0, 1, 2] == F(1, 2)
    assert conn.coeffs[1, 0, 2] == F(-1, 2)
    assert conn.coeffs[0, 2, 1] == F(-1, 2)
    assert conn.coeffs[2, 0, 1] == F(-1, 2)
    assert conn.coeffs[1, 2, 0] == F(1, 2)
    assert conn.coeffs[2, 1, 0] == F(1, 2)
    assert conn.coeffs[0, 0, 0] == 0 and conn.coeffs[2, 2, 0] == 0


def test_levi_civita_biinvariant_is_half_bracket():
    g = so3()
    conn = levi_civita(g)
    assert np.array_equal(conn.coeffs * 2, g.bracket)


def test_connection_defects_vanish_exactly():
    for g in (hyperbolic3(), heisenberg3(), so3()):
        conn = levi_civita(g)
        assert torsion_defect(g, conn) == 0
        assert metric_defect(g, conn) == 0


def test_connection_defects_small_in_float():
    g = to_float_algebra(hyperbolic3())
    conn = levi_civita(g)
    assert torsion_defect(g, conn) < 1e-12
    assert metric_defect(g, conn) < 1e-12


# ---------------------------------------------------------------------------
# curvature


def test_biinvariant_curvature_is_quarter_ad():
    g = so3()
    conn = levi_civita(g)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        r = curvature_operator(g, conn, i, j)
        lie = np.tensordot(g.bracket[i, j, :], g.bracket, axes=(0, 0)).T
        assert np.array_equal(r * (-4), lie)


def test_abelian_curvature_vanishes():
    g = make_algebra(bracket_table(3, {}))
    conn = levi_civita(g)
    for i in range(3):
        for j in range(3):
            assert all(x == 0 for x in curvature_operator(g, conn, i, j).reshape(-1))


def test_hyperbolic3_curvature_matches_hand_table():
    # R(X, T) X = T and R(X, T) T = -X, so <R(X,T)T, X> = -1: curvature -1
    g = hyperbolic3()
    conn = levi_civita(g)
    r = curvature_operator(g, conn, 0, 2)
    x = exact_array([1, 0, 0])
    t = exact_array([0, 0, 1])
    assert list(r @ x) == [F(0), F(0), F(1)]
    assert list(r @ t) == [F(-1), F(0), F(0)]


def test_gram_scaling_preserves_connection():
    # the Levi-Civita coefficients are invariant under gram -> 7 gram
    g = hyperbolic3()
    g7 = make_algebra(g.bracket, 7 * g.gram, g.mode, g.basis_names, g.tol)
    assert np.array_equal(levi_civita(g).coeffs, levi_civita(g7).coeffs)
