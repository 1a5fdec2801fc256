import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplab import lattice
from lcplab.errors import InputError
from lcplab.gallery import all_entries
from lcplab.lattice import (ConjugacySolution, LatticeData, ProbeResult,
                            UnitRootProfile, char_poly, companion,
                            discreteness_probe, is_irreducible_over_Z,
                            is_unimodular_matrix, solve_conjugacy,
                            unit_root_profile, verify_conjugacy)

GOLDEN = [[1, 1], [1, 2]]  # eigenvalues (3 +- sqrt 5)/2


def test_char_poly_golden():
    assert char_poly(GOLDEN) == (1, -3, 1)


def test_char_poly_identity():
    assert char_poly(np.eye(3, dtype=int)) == (-1, 3, -3, 1)


def test_char_poly_bool_entries_become_ints():
    # bool is a subclass of int; it takes the checked path, not the int one
    cp = char_poly([[True, False], [False, True]])
    assert cp == (1, -2, 1) and all(type(c) is int for c in cp)
    assert type(lattice._as_int(True, "x")) is int


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
        # (2X+1)(X+1)
        assert not is_irreducible_over_Z((1, 3, 2))

    def test_quartic_with_quadratic_factors(self):
        # (X^2-2)(X^2-3): no rational roots
        assert not is_irreducible_over_Z((6, 0, -5, 0, 1))
        # (X^2-2)(X^2+X+1)
        assert not is_irreducible_over_Z((-2, -2, -1, 1, 1))
        # (X^2+1)^2
        assert not is_irreducible_over_Z((1, 0, 2, 0, 1))

    @pytest.mark.parametrize("coeffs", [
        (1, -100, 2502, -100, 1),  # (X^2-50X+1)^2: its double roots round off
        (1, -4, 6, -4, 1),  # (X-1)^4
        (1, -100, 2502, -100, 2, -100, 2502, -100, 1),  # (X^2-50X+1)^2 (X^4+1)
        (2, 0, 4, 0, 2),  # 2(X^2+1)^2
    ])
    def test_repeated_factor_is_reducible(self, coeffs):
        assert not is_irreducible_over_Z(coeffs)

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

    def test_seeded_products_read_reducible(self):
        # products of two factors of degree 1..4, coefficients up to 1e12,
        # leading coefficients 1 or up to 1e6; a factor whose numeric roots
        # round badly, or a leading coefficient with huge divisors, must
        # neither hide the split nor take seconds
        rng = random.Random(20260819)
        for _ in range(150):
            f, g = ([rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 4))]
                    + [rng.choice((1, rng.randint(1, 10**6)))] for _ in range(2))
            prod = [0] * (len(f) + len(g) - 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    prod[i + j] += x * y
            assert not is_irreducible_over_Z(prod), (f, g)

    @pytest.mark.parametrize("coeffs", [
        (1, 0, 0, 0, 0, 0, 0, 0, 1),  # X^8 + 1
        (576, 0, -960, 0, 352, 0, -40, 0, 1),  # Swinnerton-Dyer, roots +-sqrt2 +-sqrt3 +-sqrt5
    ])
    def test_irreducible_octics_that_split_mod_every_prime(self, coeffs):
        # no degree pattern rules out a factor, so the verdict rests on
        # lifting and trying every subset
        assert is_irreducible_over_Z(coeffs)

    def test_large_eisenstein_octic(self):
        p, rng = 999983, random.Random(5)
        coeffs = [p * rng.randint(-10**6, 10**6) for _ in range(8)] + [1]
        coeffs[0] = p * (p - 1)
        assert is_irreducible_over_Z(coeffs)

    def test_size_two_subsets(self):
        # (X^4 + 1)(X^4 - 10X^2 + 1): both quartics split into two
        # quadratics mod every prime, so a factor is a pair of them
        assert not is_irreducible_over_Z((1, 0, -10, 0, 2, 0, -10, 0, 1))

    @pytest.mark.parametrize("coeffs, irreducible", [
        ((7, 0, 106, 0, 15), False),  # (15X^2 + 1)(X^2 + 7) = X^2 (X^2 + 1) mod 7
        ((7, 7, 0, 0, 15), True),  # Eisenstein at 7, X^4 mod 7
    ])
    def test_primes_skip_the_leading_coefficient_and_repeated_factors(
            self, coeffs, irreducible):
        assert next(lattice._primes_for(list(coeffs)))[0] == 11
        assert is_irreducible_over_Z(coeffs) == irreducible

    def test_sieve_alone_proves_irreducible(self, monkeypatch):
        # factor degrees (1, 3) mod 3 and (2, 2) mod 5 share no proper sum
        def no_lift(*args):
            raise AssertionError("lifted although the sieve decides")
        monkeypatch.setattr(lattice, "_hensel_lift", no_lift)
        assert is_irreducible_over_Z((4, -3, -1, -4, 1))

    def test_hensel_lift_passes_the_bound(self):
        # X^2 - 2 = (X + 4)(X + 3) mod 7; the lift stops at the first power
        # of 7 above the bound and keeps f = prod mod that power
        for bound in (48, 49, 10**30):
            gs, m = lattice._hensel_lift([-2, 0, 1], [[4, 1], [3, 1]], 7, 7, bound)
            assert m // 7 <= bound < m
            (a, _), (b, _) = gs
            assert (a * b + 2) % m == 0 and (a + b) % m == 0

    @pytest.mark.parametrize("coeffs", [(), (1.5, 2, 1), (Fraction(3, 2), 2, 1)])
    def test_rejects_empty_and_non_integer_coefficients(self, coeffs):
        # truncating 3/2 to 1 would answer for X^2 + 2X + 1 instead
        with pytest.raises(InputError):
            is_irreducible_over_Z(coeffs)
        with pytest.raises(InputError):
            unit_root_profile(coeffs)


LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide_monic(f: list[int], g: list[int]) -> list[int]:
    """f / g for a monic g that divides f."""
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    for s in range(len(q) - 1, -1, -1):
        q[s] = c = f[s + len(g) - 1]
        for k, y in enumerate(g):
            f[s + k] -= c * y
    assert not any(f)
    return q


def _cyclotomic(n: int) -> list[int]:
    """Phi_n: X^n - 1 divided by Phi_d for every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = _divide_monic(f, _cyclotomic(d))
    return f


_SIGN = st.sampled_from([1, -1])

# (factor, (roots on the circle, real roots off it, complex roots off it)),
# each profile known from the factor's construction
_KNOWN_FACTORS = st.one_of(
    st.sampled_from([_cyclotomic(n) for n in range(1, 31) if len(_cyclotomic(n)) <= 9])
    .map(lambda f: (f, (len(f) - 1, 0, 0))),
    st.integers(-1, 1).map(lambda t: ([1, -t, 1], (2, 0, 0))),
    st.tuples(st.integers(3, 40), _SIGN).map(lambda t: ([1, -t[0] * t[1], 1], (0, 2, 0))),
    st.tuples(st.integers(2, 50), _SIGN).map(lambda a: ([-a[0] * a[1], 1], (0, 1, 0))),
    st.integers(2, 30).flatmap(  # X^2 + bX + c, b^2 < 4c: roots of modulus sqrt(c)
        lambda c: st.integers(-math.isqrt(4 * c - 1), math.isqrt(4 * c - 1))
        .map(lambda b: ([c, b, 1], (0, 0, 2)))),
    st.just((LEHMER, (8, 2, 0))),
    st.just(([0, 1], (0, 1, 0))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda b: b[-1] != 0))
def test_pseudo_remainder_is_the_remainder_of_the_pseudo_division(a, b):
    # Euclid, Sturm and the factor test take the remainder without the quotient
    assert lattice._pseudo_remainder(a, b) == lattice._pseudo_divide(a, b)[1]


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

    @pytest.mark.parametrize("coeffs", [(0,), (0, 0), (0, 0, 0)])
    def test_zero_polynomial_is_refused(self, coeffs):
        # every number is a root of 0; "degree 0, no roots" is the answer
        # for a nonzero constant
        with pytest.raises(InputError, match="zero polynomial"):
            unit_root_profile(coeffs)

    @pytest.mark.parametrize("coeffs, profile, irreducible", [
        ([1, 10**400, 1], (2, 0, 2, 0), True),
        ([10**400, 1], (1, 0, 1, 0), True),
        ([-10**310, 0, 1], (2, 0, 2, 0), False),  # (X - 10^155)(X + 10^155)
    ])
    def test_beyond_float_range_is_exact(self, coeffs, profile, irreducible):
        # no coefficient is taken to a float, so none is too large
        p = unit_root_profile(coeffs)
        assert (p.degree, p.on_circle, p.real_off_circle, p.complex_off_circle) == profile
        assert is_irreducible_over_Z(coeffs) is irreducible

    def test_nonzero_constant_has_no_roots(self):
        p = unit_root_profile((5, 0))
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == (0, 0, 0, 0)

    def test_roots_just_off_the_circle(self):
        # N^2 (X - 1)^2 - 1: the roots 1 +- 1/N are real and off the circle;
        # in float64, N^2 - 1 rounds to N^2 and both roots to 1
        n = 10 ** 8
        p = unit_root_profile([n * n - 1, -2 * n * n, n * n])
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == (2, 0, 2, 0)

    def test_lehmer_polynomial(self):
        # Lehmer's degree-10 polynomial: a Salem number, its inverse, and
        # eight roots on the circle
        p = unit_root_profile(LEHMER)
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == (10, 8, 2, 0)


    @pytest.mark.parametrize("coeffs, profile", [
        ((1, 0, 2, 0, 1), (4, 4, 0, 0)),  # (X^2+1)^2
        ((1, -4, 6, -4, 1), (4, 4, 0, 0)),  # (X-1)^4
        ((1, -6, 11, -6, 1), (4, 0, 4, 0)),  # (X^2-3X+1)^2
        ((4, -4, 5, -4, 1), (4, 2, 2, 0)),  # (X-2)^2 (X^2+1)
        ((1, 0, 3, 0, 3, 0, 1), (6, 6, 0, 0)),  # (X^2+1)^3
        ((0, 0, 1), (2, 0, 2, 0)),  # X^2
    ])
    def test_repeated_roots_count_with_multiplicity(self, coeffs, profile):
        p = unit_root_profile(coeffs)
        assert (p.degree, p.on_circle, p.real_off_circle,
                p.complex_off_circle) == profile

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_KNOWN_FACTORS, st.integers(1, 3)), min_size=1, max_size=4)
           .filter(lambda fs: sum((len(f) - 1) * k for (f, _), k in fs) <= 30),
           st.sampled_from([1, -1, 2, -3]))
    def test_products_of_known_factors(self, factors, unit):
        f, want = [unit], [0, 0, 0]
        for (g, counts), mult in factors:
            for _ in range(mult):
                f = _poly_mul(f, g)
            want = [w + mult * c for w, c in zip(want, counts)]
        p = unit_root_profile(f)
        assert (p.degree, p.on_circle, p.real_off_circle, p.complex_off_circle) \
            == (len(f) - 1, *want)
        assert p.on_circle + p.real_off_circle + p.complex_off_circle == p.degree
        # x -> -x and, without a root 0, x -> 1/x keep every count
        assert unit_root_profile([c if k % 2 == 0 else -c for k, c in enumerate(f)]) == p
        if f[0] != 0:
            assert unit_root_profile(f[::-1]) == p

class TestRecords:
    def test_value_records_compare_and_hash_by_field(self):
        p = UnitRootProfile(degree=2, on_circle=0, real_off_circle=2, complex_off_circle=0)
        assert p == UnitRootProfile(2, 0, 2, 0) and hash(p) == hash(UnitRootProfile(2, 0, 2, 0))
        assert p != UnitRootProfile(2, 2, 0, 0) and p != (2, 0, 2, 0)
        assert repr(p) == ("UnitRootProfile(degree=2, on_circle=0, real_off_circle=2, "
                           "complex_off_circle=0)")
        r = ProbeResult(discrete=True, rank=1, generator=0.5)
        assert r == ProbeResult(True, 1, 0.5) and {r, ProbeResult(True, 1, 0.5)} == {r}
        assert repr(r) == "ProbeResult(discrete=True, rank=1, generator=0.5)"

    def test_array_records_compare_by_identity(self):
        m = np.eye(2, dtype=int)
        data = LatticeData(integer_matrix=m)
        assert data.t0 is None and data.translation_parts is None
        assert data == data and data != LatticeData(m)
        assert repr(data) == f"LatticeData(integer_matrix={m!r}, t0=None, translation_parts=None)"
        sol = ConjugacySolution(t0=1.0, generator=m, conjugator=m)
        assert sol == sol and sol != ConjugacySolution(1.0, m, m)
        assert (sol.t0, sol.generator, sol.conjugator) == (1.0, m, m)

    def test_records_are_immutable(self):
        p = UnitRootProfile(2, 0, 2, 0)
        with pytest.raises(AttributeError):
            p.degree = 3
        with pytest.raises(AttributeError):
            del p.on_circle
        with pytest.raises(AttributeError):
            LatticeData([[1]]).t0 = 1.0
        assert p == UnitRootProfile(2, 0, 2, 0)

    @pytest.mark.parametrize("args, kwargs", [
        ((True, 1), {}),  # a field missing
        ((True, 1, 0.5, 2), {}),  # one too many
        ((True,), {"discrete": False, "rank": 1, "generator": 0.5}),  # given twice
        ((True, 1), {"gen": 0.5}),  # no such field
    ])
    def test_construction_names_every_field_once(self, args, kwargs):
        with pytest.raises(TypeError):
            ProbeResult(*args, **kwargs)


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
        # eigenvalues (-3 +- sqrt 5) / 2: negative and off the circle
        with pytest.raises(InputError, match="is not positive"):
            solve_conjugacy([[-3, 1], [-1, 0]])

    def test_minus_identity_is_a_rotation_by_pi(self):
        # -1, -1 is a unit-circle pair
        m = [[-1, 0], [0, -1]]
        sol = solve_conjugacy(m)
        assert sol.t0 == math.pi
        assert np.array_equal(sol.generator, [[0.0, -1.0], [1.0, 0.0]])
        assert verify_conjugacy(m, sol) < 1e-12

    def test_minus_identity_beside_a_hyperbolic_block(self):
        m = np.zeros((4, 4), dtype=int)
        m[:2, :2] = GOLDEN
        m[2:, 2:] = -np.eye(2, dtype=int)
        sol = solve_conjugacy(m)
        lam = (3 + math.sqrt(5)) / 2
        assert abs(sol.t0 - math.log(lam)) < 1e-12
        assert abs(sol.generator[3, 2] - math.pi / math.log(lam)) < 1e-12
        assert verify_conjugacy(m, sol) < 1e-12

    @pytest.mark.parametrize("m", [[[-1]], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
                             ids=["1x1", "3x3"])
    def test_odd_count_of_minus_one_rejected(self, m):
        with pytest.raises(InputError, match="eigenvalue -1 is not positive"):
            solve_conjugacy(m)

    def test_defective_minus_one_returns_none(self):
        assert solve_conjugacy([[-1, 1], [0, -1]]) is None

    def test_off_circle_complex_rejected(self):
        # eigenvalues 1 +- 2i, modulus sqrt 5
        with pytest.raises(InputError):
            solve_conjugacy([[1, -2], [2, 1]])

    def test_verify_detects_wrong_time(self):
        sol = solve_conjugacy(GOLDEN)
        bad = ConjugacySolution(t0=sol.t0 + 0.1, generator=sol.generator,
                                conjugator=sol.conjugator)
        assert verify_conjugacy(GOLDEN, bad) > 1e-2

    def test_integer_beyond_float_range_is_named(self):
        big = 10**400
        with pytest.raises(InputError, match=r"^entry \(1, 0\) is beyond float range"):
            solve_conjugacy([[1, 0], [big, 1]])
        sol = solve_conjugacy(GOLDEN)
        with pytest.raises(InputError, match=r"^entry \(0, 1\) is beyond float range"):
            verify_conjugacy([[1, -big], [1, 2]], sol)


def _random_block_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    rotations = int(rng.integers(0, n // 2 + 1))
    gen = np.zeros((n, n))
    reals = n - 2 * rotations
    gen[range(reals), range(reals)] = rng.uniform(-2.0, 2.0, reals)
    for pos in range(reals, n, 2):
        mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        gen[pos, pos + 1], gen[pos + 1, pos] = -mu, mu
    return gen


def _assert_matches_expm(t0, gen):
    want = scipy.linalg.expm(t0 * gen)
    got = lattice._block_form_exp(t0, gen)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBlockFormExp:
    @pytest.mark.parametrize("m", [e.lattice.integer_matrix for e in all_entries()
                                   if e.lattice is not None]
                             + [companion((1, -3, 3, -3, 1))])
    def test_matches_expm_on_solved_lattice_matrices(self, m):
        sol = solve_conjugacy(m)
        _assert_matches_expm(sol.t0, sol.generator)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_expm_on_random_block_generators(self, seed):
        rng = np.random.default_rng(seed)
        gen = _random_block_generator(rng, int(rng.integers(1, 9)))
        _assert_matches_expm(float(rng.uniform(0.1, 2.0)), gen)

    @pytest.mark.parametrize("where", [(0, 2), (2, 0), (2, 3), (3, 0)])
    def test_an_entry_outside_the_blocks_is_refused(self, where):
        # blocks: lambda at 0, a rotation at 1..2, lambda at 3
        gen = np.zeros((4, 4))
        gen[0, 0] = 0.5
        gen[1, 2], gen[2, 1] = -1.0, 1.0
        gen[3, 3] = -0.5
        gen[where] = 1e-300
        with pytest.raises(InputError, match="outside its diagonal blocks"):
            lattice._block_form_exp(1.0, gen)

    @pytest.mark.parametrize("block", [
        [[0.0, -1.0], [1.0 + 1e-15, 0.0]],  # not skew
        [[0.0, 1.0], [1.0, 0.0]],  # symmetric
        [[1e-300, -1.0], [1.0, 0.0]],  # nonzero diagonal
        [[0.0, np.nan], [1.0, 0.0]],
    ])
    def test_a_two_by_two_block_that_is_not_skew_is_refused(self, block):
        sol = solve_conjugacy(GOLDEN)
        bad = ConjugacySolution(t0=sol.t0, generator=np.array(block),
                                conjugator=sol.conjugator)
        with pytest.raises(InputError, match=r"\[\[0, -mu\], \[mu, 0\]\]"):
            verify_conjugacy(GOLDEN, bad)

    def test_a_non_square_generator_is_refused(self):
        with pytest.raises(InputError, match="square"):
            lattice._block_form_exp(1.0, np.zeros((2, 3)))


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
