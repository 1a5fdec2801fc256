import math
from fractions import Fraction

import numpy as np
import pytest

from lcplab.errors import InputError
from lcplab.gallery import (QUARTIC, all_entries, expanding_rate,
                            fundamental_example, product_example,
                            rotation_rate, semidirect_sum, sl_example,
                            strongly_irreducible_example)
from lcplab.lattice import char_poly, solve_conjugacy, verify_conjugacy
from lcplab.lcp import lcp_decomposable, lee_form_from_splitting, validate_lcp
from lcplab.liealg import (ad_matrix, bracket_table, is_unimodular,
                           make_algebra)
from lcplab.scalars import EXACT, FLOAT
from lcplab.holonomy import de_rham_splitting


def test_every_entry_validates():
    for entry in all_entries():
        report = validate_lcp(entry.algebra, entry.lcp)
        assert report.overall, (entry.name, report.failures())


def test_entry_names_are_stable():
    assert [e.name for e in all_entries()] == [
        "fundamental", "product", "strongly_irreducible", "sl2_semidirect"]


class TestSemidirect:
    def affine(self):
        c = bracket_table(2, {(0, 1): {1: 1}}, EXACT)
        return make_algebra(c)

    def test_builds_valid_algebra(self):
        h = self.affine()
        rep = [np.array([[1, 0], [0, 2]], dtype=object),
               np.array([[0, 0], [0, 0]], dtype=object)]
        # [rep0, rep1] = 0 = rep([e0,e1]) = rep(e1): consistent
        g = semidirect_sum(h, rep, v_dim=2)
        assert g.dim == 4
        assert is_unimodular(g) is False  # tr rep0 = 3

    def test_rejects_non_homomorphism_by_name(self):
        h = self.affine()
        rep = [np.zeros((2, 2), dtype=object),
               -np.eye(2, dtype=int).astype(object)]
        # [rep0, rep1] = 0 but rep([e0, e1]) = rep(e1) = -I
        with pytest.raises(InputError, match=r"rep\(e0\).*rep\(e1\)"):
            semidirect_sum(h, rep, v_dim=2)

    def test_rejects_untwisted_matrix_action(self):
        # right multiplication N -> N.M without the transpose is an
        # anti-homomorphism; on row-flattened coordinates it is
        # kron(I, M^T) and must be rejected by name
        c = bracket_table(3, {(0, 1): {2: 1}, (2, 0): {0: 2},
                              (2, 1): {1: -2}}, EXACT)
        sl2 = make_algebra(c, basis_names=("E12", "E21", "H"))
        e12 = np.array([[0, 1], [0, 0]], dtype=object)
        e21 = np.array([[0, 0], [1, 0]], dtype=object)
        hh = np.array([[1, 0], [0, -1]], dtype=object)
        i2 = np.eye(2, dtype=int).astype(object)
        rep = [np.kron(i2, m.T) for m in (e12, e21, hh)]
        with pytest.raises(InputError, match="E12.*E21"):
            semidirect_sum(sl2, rep, v_dim=4)
        # the twisted action passes
        rep_ok = [np.kron(i2, m) for m in (e12, e21, hh)]
        g = semidirect_sum(sl2, rep_ok, v_dim=4)
        assert g.dim == 7

    def test_rejects_untwisted_matrix_action_in_float(self):
        c = bracket_table(3, {(0, 1): {2: 1.0}, (2, 0): {0: 2.0},
                              (2, 1): {1: -2.0}}, FLOAT)
        sl2 = make_algebra(c, mode=FLOAT, basis_names=("E12", "E21", "H"))
        units = [np.array(m, dtype=float) for m in
                 ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])]
        i2 = np.eye(2)
        with pytest.raises(InputError, match="E12.*E21"):
            semidirect_sum(sl2, [np.kron(i2, m.T) for m in units], v_dim=4)
        g = semidirect_sum(sl2, [np.kron(i2, m) for m in units], v_dim=4)
        assert g.dim == 7 and g.mode is FLOAT

    def test_shape_validation(self):
        h = self.affine()
        with pytest.raises(InputError):
            semidirect_sum(h, [np.zeros((2, 2), dtype=object)], v_dim=2)
        with pytest.raises(InputError):
            semidirect_sum(h, [np.zeros((3, 2), dtype=object)] * 2, v_dim=2)


class TestFundamental:
    def test_structure(self):
        e = fundamental_example()
        g = e.algebra
        assert g.dim == 3 and g.mode is EXACT
        assert g.basis_names == ("X", "Y", "T")
        assert is_unimodular(g)

    def test_verdicts(self):
        e = fundamental_example()
        spl = de_rham_splitting(e.algebra)
        assert spl.factor_dims == e.expected.factor_dims
        assert spl.factor_is_flat == e.expected.factor_is_flat
        assert spl.holonomy_dim == e.expected.holonomy_dim
        rep = lcp_decomposable(e.algebra, e.lcp, splitting=spl,
                               lcp_report=validate_lcp(e.algebra, e.lcp))
        assert rep.decomposable is e.expected.decomposable
        assert rep.touched_factors == e.expected.touched_factors
        assert rep.q == e.expected.q
        assert rep.dim_bound_satisfied is e.expected.dim_bound_satisfied

    def test_lee_form_recovered_exactly(self):
        e = fundamental_example()
        theta = lee_form_from_splitting(e.algebra, e.lcp.flat_ideal,
                                        e.lcp.complement)
        assert all(a == b for a, b in zip(theta, e.lcp.lee_covector))

    def test_lattice_matrix(self):
        e = fundamental_example()
        assert char_poly(e.lattice.integer_matrix) == (1, -3, 1)
        sol = solve_conjugacy(e.lattice.integer_matrix)
        assert abs(sol.t0 - e.lattice.t0) < 1e-12
        assert verify_conjugacy(e.lattice.integer_matrix, sol) < 1e-12


class TestProduct:
    def test_verdicts(self):
        e = product_example()
        spl = de_rham_splitting(e.algebra)
        assert spl.factor_dims == (1, 3)
        assert spl.factor_is_flat == (True, False)
        rep = lcp_decomposable(e.algebra, e.lcp, splitting=spl,
                               lcp_report=validate_lcp(e.algebra, e.lcp))
        assert rep.decomposable
        assert rep.touched_factors == (1,)
        assert rep.witness is not None
        assert rep.principal_factor.dim == 3
        assert rep.dim_bound_satisfied  # 3 = q + 2 exactly

    def test_translation_parts(self):
        e = product_example()
        assert e.lattice.translation_parts == (1.0, math.sqrt(2.0))


class TestStronglyIrreducible:
    def test_rates_match_quartic_factors(self):
        p = (3.0 + math.sqrt(5.0)) / 2.0
        lam = (p + math.sqrt(p * p - 4.0)) / 2.0
        assert abs(expanding_rate() - math.log(lam)) < 1e-15
        assert abs(rotation_rate() - math.acos((3.0 - math.sqrt(5.0)) / 4.0)) == 0

    def test_bracket_matches_rates(self):
        e = strongly_irreducible_example()
        g = e.algebra
        assert g.mode is FLOAT and g.dim == 5
        a, mu = expanding_rate(), rotation_rate()
        adt = ad_matrix(g, 4)
        expected = np.zeros((5, 5))
        expected[0, 0] = a
        expected[1, 1] = -a
        expected[3, 2] = mu
        expected[2, 3] = -mu
        assert np.allclose(adt, expected)
        assert is_unimodular(g)

    def test_verdicts(self):
        e = strongly_irreducible_example()
        spl = de_rham_splitting(e.algebra)
        assert spl.factor_dims == (2, 3)
        assert spl.factor_is_flat == (True, False)
        assert spl.holonomy_dim == 3
        rep = lcp_decomposable(e.algebra, e.lcp, splitting=spl,
                               lcp_report=validate_lcp(e.algebra, e.lcp))
        assert rep.decomposable
        assert rep.principal_factor.dim == 3
        assert rep.q == 1 and rep.dim_bound_satisfied

    def test_lattice_consistency(self):
        e = strongly_irreducible_example()
        assert char_poly(e.lattice.integer_matrix) == QUARTIC
        sol = solve_conjugacy(e.lattice.integer_matrix)
        assert abs(sol.t0 - e.lattice.t0) < 1e-12
        assert abs(sol.t0 - expanding_rate()) < 1e-12
        # the rotation block of the generator carries mu / t0
        assert abs(sol.generator[3, 2] - rotation_rate() / sol.t0) < 1e-10
        assert verify_conjugacy(e.lattice.integer_matrix, sol) < 1e-10


class TestSl2:
    def test_structure(self):
        e = sl_example(2)
        g = e.algebra
        assert g.dim == 14 and g.mode is EXACT
        assert g.basis_names[8] == "w40"
        assert g.basis_names[10:] == ("E12", "E21", "H", "b")
        assert is_unimodular(g)

    def test_gram_blocks(self):
        g = sl_example(2).algebra
        assert g.gram[12, 12] == Fraction(2)  # trace form doubles on H
        assert g.gram[10, 10] == Fraction(1)
        assert all(g.gram[i, i] == 1 for i in range(10))

    def test_ad_b_eigenvalue_dimensions(self):
        g = sl_example(2).algebra
        adb = ad_matrix(g, 13)
        assert all(adb[i, j] == 0 for i in range(14) for j in range(14) if i != j)
        diag = [adb[i, i] for i in range(14)]
        assert sorted([diag.count(1), diag.count(-1), diag.count(0)]) == [4, 5, 5]

    def test_lcp_data_points_at_fixed_vector(self):
        e = sl_example(2)
        row = e.lcp.flat_ideal.basis[0]
        assert row[8] == 1 and all(row[i] == 0 for i in range(14) if i != 8)
        theta = e.lcp.lee_covector
        assert theta[13] == 1 and all(theta[i] == 0 for i in range(13))

    def test_validates_with_lee_formula(self):
        e = sl_example(2)
        report = validate_lcp(e.algebra, e.lcp)
        assert report.overall
        assert report.lee_formula_consistent is True

    def test_general_d(self):
        e = sl_example(3)
        g = e.algebra
        assert g.dim == 29
        assert is_unimodular(g)
        adb = ad_matrix(g, 28)
        diag = [adb[i, i] for i in range(29)]
        assert sorted([diag.count(1), diag.count(-1), diag.count(0)]) == [9, 10, 10]
        assert e.lcp.flat_ideal.basis[0][18] == 1  # w90 tensor the +1 direction
        with pytest.raises(InputError):
            sl_example(1)
