import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplab.errors import InputError
from lcplab.lattice import (ConjugacySolution, ProbeResult, char_poly,
                            companion, discreteness_probe,
                            is_irreducible_over_Z, is_unimodular_matrix,
                            solve_conjugacy, unit_root_profile,
                            verify_conjugacy)

GOLDEN = [[1, 1], [1, 2]]  # eigenvalues (3 +- sqrt 5)/2


def test_char_poly_golden():
    assert char_poly(GOLDEN) == (1, -3, 1)


def test_char_poly_identity():
    assert char_poly(np.eye(3, dtype=int)) == (-1, 3, -3, 1)


def test_char_poly_rejects_fractions():
    with pytest.raises(InputError):
        char_poly([[Fraction(1, 2), 0], [0, 1]])


def test_char_poly_rejects_nonsquare():
    with pytest.raises(InputError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_companion_quadratic():
    c = companion((1, -3, 1))
    assert c.tolist() == [[0, -1], [1, 3]]


def test_companion_linear():
    assert companion((-1, 1)).tolist() == [[1]]


def test_companion_rejects_nonmonic():
    with pytest.raises(InputError):
        companion((1, 2))
    with pytest.raises(InputError):
        companion((5,))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5))
def test_companion_char_poly_roundtrip(lower):
    coeffs = tuple(lower) + (1,)
    assert char_poly(companion(coeffs)) == coeffs


def test_unimodular_matrix():
    assert is_unimodular_matrix(GOLDEN)
    assert is_unimodular_matrix([[0, -1], [1, 0]])
    assert not is_unimodular_matrix([[2, 0], [0, 1]])


class TestIrreducibility:
    def test_quadratics(self):
        assert is_irreducible_over_Z((1, -3, 1))
        assert is_irreducible_over_Z((1, 0, 1))       # X^2 + 1
        assert is_irreducible_over_Z((1, 1, 1))
        assert not is_irreducible_over_Z((2, -3, 1))  # (X-1)(X-2)
        assert not is_irreducible_over_Z((-1, 0, 1))  # (X-1)(X+1)

    def test_nonmonic_linear_factor(self):
        # (2X+1)(X+1), root -1/2 only visible with lead divisors
        assert not is_irreducible_over_Z((1, 3, 2))

    def test_quartic_with_quadratic_factors(self):
        # (X^2-2)(X^2-3): no rational roots, splits through root subsets
        assert not is_irreducible_over_Z((6, 0, -5, 0, 1))
        # (X^2-2)(X^2+X+1)
        assert not is_irreducible_over_Z((-2, -2, -1, 1, 1))
        # (X^2+1)^2
        assert not is_irreducible_over_Z((1, 0, 2, 0, 1))

    def test_irreducible_quartics(self):
        assert is_irreducible_over_Z((1, 0, 0, 0, 1))  # X^4 + 1
        assert is_irreducible_over_Z((1, -3, 3, -3, 1))

    def test_edge_degrees(self):
        assert is_irreducible_over_Z((0, 1))        # X
        assert is_irreducible_over_Z((3, 2))        # 2X + 3
        assert not is_irreducible_over_Z((0, 0, 1))  # X^2
        assert not is_irreducible_over_Z((5,))
        with pytest.raises(InputError):
            is_irreducible_over_Z((0,) * 9 + (1,))

    def test_content_is_stripped(self):
        assert is_irreducible_over_Z((2, 0, 2))  # 2(X^2 + 1)

    @pytest.mark.parametrize("coeffs", [(), (1.5, 2, 1), (Fraction(3, 2), 2, 1)])
    def test_rejects_empty_and_non_integer_coefficients(self, coeffs):
        # truncating 3/2 to 1 would answer for X^2 + 2X + 1 instead
        with pytest.raises(InputError):
            is_irreducible_over_Z(coeffs)
        with pytest.raises(InputError):
            unit_root_profile(coeffs)


class TestUnitRootProfile:
    def test_mixed_quartic(self):
        p = unit_root_profile((1, -3, 3, -3, 1))
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == (4, 2, 2, 0)

    def test_golden_quadratic(self):
        p = unit_root_profile((1, -3, 1))
        assert (p.on_circle, p.real_off_circle, p.complex_off_circle) == (0, 2, 0)

    def test_pure_rotation(self):
        p = unit_root_profile((1, 0, 1))
        assert (p.on_circle, p.real_off_circle, p.complex_off_circle) == (2, 0, 0)

    def test_cubic_with_cyclotomic_factor(self):
        # (X-2)(X^2+X+1)
        p = unit_root_profile((-2, -1, -1, 1))
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == (3, 2, 1, 0)


class TestSolveConjugacy:
    def test_golden(self):
        sol = solve_conjugacy(GOLDEN)
        assert abs(sol.t0 - math.log((3 + math.sqrt(5)) / 2)) < 1e-12
        assert np.allclose(sol.generator, np.diag([1.0, -1.0]))
        assert verify_conjugacy(GOLDEN, sol) < 1e-12

    def test_mixed_quartic_companion(self):
        m = companion((1, -3, 3, -3, 1))
        sol = solve_conjugacy(m)
        p = (3.0 + math.sqrt(5.0)) / 2.0
        lam = (p + math.sqrt(p * p - 4.0)) / 2.0
        mu = math.acos((3.0 - math.sqrt(5.0)) / 4.0)
        assert abs(sol.t0 - math.log(lam)) < 1e-12
        assert abs(sol.generator[0, 0] - 1.0) < 1e-12
        assert abs(sol.generator[1, 1] + 1.0) < 1e-12
        assert abs(sol.generator[3, 2] - mu / math.log(lam)) < 1e-10
        assert verify_conjugacy(m, sol) < 1e-10

    def test_pure_rotation(self):
        m = [[0, -1], [1, 0]]
        sol = solve_conjugacy(m)
        assert abs(sol.t0 - math.pi / 2) < 1e-12
        assert verify_conjugacy(m, sol) < 1e-12

    def test_identity(self):
        sol = solve_conjugacy(np.eye(2, dtype=int))
        assert sol.t0 == 1.0
        assert np.allclose(sol.generator, 0.0)
        assert verify_conjugacy(np.eye(2, dtype=int), sol) < 1e-12

    def test_defective_returns_none(self):
        assert solve_conjugacy([[1, 1], [0, 1]]) is None

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InputError):
            solve_conjugacy([[-1, 0], [0, -1]])

    def test_off_circle_complex_rejected(self):
        # eigenvalues 1 +- 2i, modulus sqrt 5
        with pytest.raises(InputError):
            solve_conjugacy([[1, -2], [2, 1]])

    def test_verify_detects_wrong_time(self):
        sol = solve_conjugacy(GOLDEN)
        bad = ConjugacySolution(t0=sol.t0 + 0.1, generator=sol.generator,
                                conjugator=sol.conjugator)
        assert verify_conjugacy(GOLDEN, bad) > 1e-2


class TestDiscretenessProbe:
    def test_single_generator(self):
        r = discreteness_probe([1.0])
        assert r == ProbeResult(discrete=True, rank=1, generator=1.0)

    def test_commensurable(self):
        r = discreteness_probe([0.5, 1.5])
        assert r.discrete and r.rank == 1
        assert abs(r.generator - 0.5) < 1e-12

    def test_integer_multiples(self):
        r = discreteness_probe([3.0, 6.0, 9.0])
        assert r.discrete and abs(r.generator - 3.0) < 1e-12

    def test_incommensurable_accumulates(self):
        r = discreteness_probe([1.0, math.sqrt(2.0)])
        assert not r.discrete

    def test_scale_invariance(self):
        r = discreteness_probe([1e-8, math.sqrt(2.0) * 1e-8])
        assert not r.discrete
        r2 = discreteness_probe([1e-8, 3e-8])
        assert r2.discrete and abs(r2.generator - 1e-8) < 1e-20

    def test_empty_and_zero(self):
        assert discreteness_probe([]).rank == 0
        assert discreteness_probe([0.0]).rank == 0

    def test_float_fuzz_collapses(self):
        r = discreteness_probe([1.0, 1.0 + 1e-14])
        assert r.discrete and r.rank == 1

    @pytest.mark.parametrize("values", [[math.nan], [math.inf], [-math.inf],
                                        [1.0, math.nan], [0.5, 1.5, math.inf]])
    def test_non_finite_values_rejected(self, values):
        # NaN compares false everywhere, so it would drop out of the
        # reduction unseen; an infinity would empty the work list
        with pytest.raises(InputError, match="finite"):
            discreteness_probe(values)
