from fractions import Fraction

import numpy as np
import pytest

from lcplab.cli import run_analysis
from lcplab.errors import InputError, TheoremViolationError
from lcplab.lcp import (
    LcpData,
    is_closed_covector,
    lcp_data_to_float,
    lcp_decomposable,
    lee_form_from_splitting,
    lee_sharp,
    make_lcp_data,
    validate_lcp,
    weyl_connection,
)
from lcplab.holonomy import check_reducing_pair
from lcplab.liealg import (
    bracket_table,
    curvature_operator,
    direct_sum_algebra,
    make_algebra,
    metric_defect,
    to_float_algebra,
    with_gram,
)
from lcplab.scalars import EXACT, FLOAT, exact_array

F = Fraction


def hyperbolic3():
    return make_algebra(bracket_table(3, {(2, 0): {0: 1}, (2, 1): {1: -1}}),
                        basis_names=("X", "Y", "T"))


def hyperbolic3_data(complement=True):
    g = hyperbolic3()
    comp = [[0, 1, 0], [0, 0, 1]] if complement else None
    return g, make_lcp_data(g, [[1, 0, 0]], [0, 0, 1], comp)


def abelian(n):
    return make_algebra(bracket_table(n, {}))


# ---------------------------------------------------------------------------
# Weyl connection tables


def test_weyl_table_hyperbolic3():
    g, data = hyperbolic3_data()
    conn = weyl_connection(g, data.lee_covector)
    expected = np.zeros((3, 3, 3), dtype=object)
    expected[:] = F(0)
    expected[1, 1, 2] = F(-2)  # D_Y Y = -2T
    expected[1, 2, 1] = F(2)   # D_Y T = 2Y
    expected[2, 0, 0] = F(1)   # D_T X = X
    expected[2, 1, 1] = F(1)   # D_T Y = Y
    expected[2, 2, 2] = F(1)   # D_T T = T
    assert np.array_equal(conn.coeffs, expected)


def test_weyl_table_abelian_plane():
    g = abelian(2)
    theta = exact_array([0, 1])
    conn = weyl_connection(g, theta)
    # D_{e0} swaps e0 -> -e1, e1 -> e0; D_{e1} is the identity
    assert list(conn.coeffs[0, 0]) == [F(0), F(-1)]
    assert list(conn.coeffs[0, 1]) == [F(1), F(0)]
    assert np.array_equal(conn.operator(1), np.array([[F(1), F(0)], [F(0), F(1)]], dtype=object))
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for x in curvature_operator(g, conn, i, j).reshape(-1))


def test_weyl_curvature_abelian_three_space_is_not_flat():
    # one flat direction and a covector orthogonal to it still curves the
    # Weyl connection in dimension three
    g = abelian(3)
    theta = exact_array([0, 1, 0])
    conn = weyl_connection(g, theta)
    r = curvature_operator(g, conn, 0, 2)
    e0 = exact_array([1, 0, 0])
    assert list(r @ e0) == [F(0), F(0), F(1)]


def test_lee_sharp_uses_gram():
    g = make_algebra(bracket_table(2, {}), gram=[[2, 0], [0, 1]])
    sharp = lee_sharp(g, exact_array([1, 0]))
    assert list(sharp) == [F(1, 2), F(0)]


def test_weyl_compatibility_exact():
    g, data = hyperbolic3_data()
    conn = weyl_connection(g, data.lee_covector)
    assert metric_defect(g, conn, data.lee_covector) == 0


def test_weyl_compatibility_random_covectors():
    rng = np.random.default_rng(7)
    g = to_float_algebra(hyperbolic3())
    for _ in range(5):
        theta = rng.standard_normal(3)
        conn = weyl_connection(g, theta)
        assert metric_defect(g, conn, theta) < 1e-12


def test_closed_covector():
    g = hyperbolic3()
    assert is_closed_covector(g, exact_array([0, 0, 1]))
    assert not is_closed_covector(g, exact_array([1, 0, 0]))


# ---------------------------------------------------------------------------
# Lee form from the trace identity


def test_lee_form_recovers_t_flat():
    g, data = hyperbolic3_data()
    theta = lee_form_from_splitting(g, data.flat_ideal, data.complement)
    assert list(theta) == [F(0), F(0), F(1)]


def test_lee_form_rejects_bad_complement():
    g, data = hyperbolic3_data()
    # span{X + Y, T} is not a subalgebra
    from lcplab.linalg import make_subspace
    h = make_subspace(exact_array([[1, 1, 0], [0, 0, 1]]), 3, EXACT)
    with pytest.raises(InputError):
        lee_form_from_splitting(g, data.flat_ideal, h)


def test_lee_form_rejects_overlapping_complement():
    g, data = hyperbolic3_data()
    from lcplab.linalg import make_subspace
    h = make_subspace(exact_array([[1, 0, 0], [0, 0, 1]]), 3, EXACT)
    with pytest.raises(InputError):
        lee_form_from_splitting(g, data.flat_ideal, h)


def test_lee_form_rejects_non_unimodular():
    g = make_algebra(bracket_table(2, {(0, 1): {1: 1}}))
    from lcplab.linalg import make_subspace
    u = make_subspace(exact_array([[0, 1]]), 2, EXACT)
    h = make_subspace(exact_array([[1, 0]]), 2, EXACT)
    with pytest.raises(InputError):
        lee_form_from_splitting(g, u, h)


# ---------------------------------------------------------------------------
# validation


def test_validate_passes_on_solvable_model():
    g, data = hyperbolic3_data()
    rep = validate_lcp(g, data)
    assert rep.overall
    assert rep.lee_formula_consistent is True
    assert rep.failures() == []


def test_validate_skips_formula_without_complement():
    g, data = hyperbolic3_data(complement=False)
    rep = validate_lcp(g, data)
    assert rep.lee_formula_consistent is None
    assert rep.overall


def test_validate_wrong_ideal_fails_parallel_and_flat():
    g = hyperbolic3()
    data = make_lcp_data(g, [[0, 1, 0]], [0, 0, 1])
    rep = validate_lcp(g, data)
    assert rep.proper and rep.nonzero and rep.closed and rep.adapted
    assert rep.u_is_ideal and rep.unimodular and rep.weyl_nonflat
    assert not rep.u_weyl_parallel
    assert not rep.u_weyl_flat
    assert rep.failures() == ["u_weyl_parallel", "u_weyl_flat"]


def test_validate_abelian_three_space_counterexample():
    g = abelian(3)
    data = make_lcp_data(g, [[1, 0, 0]], [0, 1, 0])
    rep = validate_lcp(g, data)
    assert rep.closed and rep.adapted and rep.u_is_ideal and rep.unimodular
    assert rep.weyl_nonflat
    assert not rep.u_weyl_parallel
    assert not rep.u_weyl_flat
    assert not rep.overall


def test_validate_abelian_plane_is_weyl_flat():
    g = abelian(2)
    data = make_lcp_data(g, [[1, 0]], [0, 1])
    rep = validate_lcp(g, data)
    assert not rep.weyl_nonflat
    assert not rep.overall


def test_validate_unclosed_covector():
    g = hyperbolic3()
    data = make_lcp_data(g, [[1, 0, 0]], [0, 1, 0])
    rep = validate_lcp(g, data)
    assert not rep.closed
    # the covector also fails adaptedness on nothing: it kills the ideal
    assert rep.adapted


def test_validate_mode_mismatch_raises():
    g = to_float_algebra(hyperbolic3())
    _, data = hyperbolic3_data()
    with pytest.raises(InputError):
        validate_lcp(g, data)


def test_validate_float_version_passes():
    g, data = hyperbolic3_data()
    rep = validate_lcp(to_float_algebra(g), lcp_data_to_float(data))
    assert rep.overall


def test_validate_gram_scaling_invariance():
    g, data = hyperbolic3_data()
    rep = validate_lcp(with_gram(g, 7 * g.gram), data)
    assert rep.overall


# ---------------------------------------------------------------------------
# decomposability


def product_with_structure():
    g = direct_sum_algebra(hyperbolic3(), abelian(1))
    data = make_lcp_data(g, [[1, 0, 0, 0]], [0, 0, 1, 0],
                         [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return g, data


def test_indecomposable_on_single_factor():
    g, data = hyperbolic3_data()
    rep = lcp_decomposable(g, data)
    assert not rep.decomposable
    assert rep.witness is None
    assert rep.touched_factors == (0,)
    assert rep.principal_factor_index == 0
    assert rep.q == 1
    assert rep.dim_bound_satisfied is True
    assert rep.mode == EXACT


def test_decomposable_on_product():
    g, data = product_with_structure()
    rep = lcp_decomposable(g, data)
    assert rep.decomposable
    assert rep.splitting.factor_dims == (1, 3)
    assert rep.touched_factors == (1,)
    assert rep.principal_factor_index == 1
    assert rep.principal_factor.dim == 3
    assert rep.q == 1
    assert rep.dim_bound_satisfied is True  # equality: 3 == 1 + 2
    assert rep.witness is not None
    assert {rep.witness.s1.dim, rep.witness.s2.dim} == {3, 1}
    assert check_reducing_pair(g, rep.witness.s1, rep.witness.s2).passed


def test_decomposable_rejects_invalid_data():
    g = hyperbolic3()
    data = make_lcp_data(g, [[0, 1, 0]], [0, 0, 1])
    with pytest.raises(InputError):
        lcp_decomposable(g, data)
    rep = lcp_decomposable(g, data, force=True)
    assert not rep.lcp_report.overall


def test_decomposable_float_product():
    g, data = product_with_structure()
    rep = lcp_decomposable(to_float_algebra(g), lcp_data_to_float(data))
    assert rep.decomposable
    assert rep.touched_factors == (1,)


def test_classify_without_data():
    g, _ = product_with_structure()
    out, code = run_analysis(g)
    assert code == 0
    assert out["de_rham"]["factor_dims"] == [1, 3]
    assert out["reducing_witness"] is not None  # the metric is reducible
    assert out["unimodular"] is True
    assert out["lcp_report"] is None and out["decomposability"] is None


def test_classify_with_data():
    g, data = product_with_structure()
    out, code = run_analysis(g, data)
    assert code == 0
    assert out["lcp_report"]["overall"] is True
    dec = out["decomposability"]
    assert dec["decomposable"] is True
    assert dec["principal_factor_dim"] == 3
    assert dec["q"] == 1
    assert dec["dim_bound_satisfied"] is True


def test_make_lcp_data_shape_errors():
    g = hyperbolic3()
    with pytest.raises(InputError):
        make_lcp_data(g, [[1, 0, 0]], [0, 1])
    with pytest.raises(InputError):
        make_lcp_data(g, [[1, 0]], [0, 0, 1])
