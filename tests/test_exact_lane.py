"""The scaled-integer lane against plain Fraction arithmetic.

Exact work runs on Python ints over a common denominator: fraction-free
elimination, integer Faddeev-LeVerrier and Bareiss, and whole-tensor
curvature. Each is checked here against a small Fraction reference that
does the same job the obvious way.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplab.gallery import all_entries
from lcplab.lcp import weyl_connection
from lcplab.liealg import (curvature_operator, curvature_tensor, levi_civita,
                           to_float_algebra)
from lcplab.linalg import _rref, charpoly_exact, exact_det, scale_of
from lcplab.scalars import EXACT, exact_array, from_scaled, to_float_array, to_scaled


def _reference_rref(rows):
    """Gauss-Jordan elimination on lists of Fractions."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _reference_charpoly(a):
    """Faddeev-LeVerrier on Fractions, constant term first."""
    n = a.shape[0]
    eye = exact_array(np.eye(n, dtype=int))
    coeffs_high = [Fraction(1)]
    m = eye
    for k in range(1, n + 1):
        am = a @ m
        c = -Fraction(sum(am[i, i] for i in range(n)), k)
        coeffs_high.append(c)
        m = am + c * eye
    return tuple(reversed(coeffs_high))


def _reference_det(a):
    """Cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 0:
        return Fraction(1)
    return sum((-1) ** j * a[0, j] * _reference_det(np.delete(a[1:], j, axis=1))
               for j in range(n) if a[0, j] != 0) + Fraction(0)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _rational_matrices(draw, max_side=7):
    """Tall, wide and square matrices, some with zero rows or columns and
    some with rows that are combinations of the others."""
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    rows = [draw(st.lists(_rationals, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [Fraction(0)] * ncols
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(_rationals), draw(_rationals)
        i, k = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[k])])
    return rows


@settings(max_examples=200, deadline=None)
@given(_rational_matrices())
def test_fraction_free_rref_matches_fraction_reference(rows):
    got_rows, got_pivots = _rref(exact_array(rows))
    want_rows, want_pivots = _reference_rref(rows)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert all(type(x) is Fraction for row in got_rows for x in row)


@settings(max_examples=100, deadline=None)
@given(_rational_matrices())
def test_scaled_round_trip(rows):
    a = exact_array(rows)
    ints, den = to_scaled(a)
    assert den >= 1
    assert all(type(x) is int for x in ints.reshape(-1))
    assert (from_scaled(ints, den) == a).all()
    # lowest terms: no common factor left between den and the numerators
    assert np.gcd.reduce([den, *ints.reshape(-1)]) == 1
    # exact zero tests ignore the scale, so an exact array counts as 1
    assert scale_of(a) == 1.0
    # a float64 array is its own scaled form over denominator 1
    f = to_float_array(a)
    same, one = to_scaled(f)
    assert same is f and one == 1
    assert from_scaled(f, 2).tobytes() == (f * 0.5).tobytes()
    # integer arrays keep the exact path
    z = np.array([[x.numerator for x in row] for row in rows])
    zi, zden = to_scaled(z)
    assert zden == 1 and all(type(x) is int for x in zi.reshape(-1))
    assert all(type(x) is Fraction for x in from_scaled(zi, zden).reshape(-1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_matches_fraction_recursion(rows):
    n = len(rows)
    a = exact_array(rows).reshape(n, n)
    assert charpoly_exact(a) == _reference_charpoly(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_det_matches_cofactor_expansion(rows):
    n = len(rows)
    a = exact_array(rows).reshape(n, n)
    assert exact_det(a) == _reference_det(a)


def _assert_tensor_stacks_operators(g, conn):
    curv = curvature_tensor(g, conn)
    n = g.dim
    assert curv.shape == (n, n, n, n)
    for i in range(n):
        for j in range(n):
            op = curvature_operator(g, conn, i, j)
            assert np.array_equal(curv[i, j], op), (i, j)
            if g.mode == EXACT:
                assert all(type(x) is Fraction for x in curv[i, j].reshape(-1))


@pytest.mark.parametrize("name", [e.name for e in all_entries()])
def test_curvature_tensor_on_gallery(name):
    entry = next(e for e in all_entries() if e.name == name)
    for g in {entry.algebra.mode: entry.algebra, "float": to_float_algebra(entry.algebra)}.values():
        _assert_tensor_stacks_operators(g, levi_civita(g))


def test_curvature_tensor_on_corpus_slice(random_corpus):
    rng = np.random.default_rng(7)
    for g in random_corpus[:30]:
        theta = exact_array(rng.integers(-2, 3, size=g.dim))
        for h in (g, to_float_algebra(g)):
            th = theta if h.mode == EXACT else theta.astype(np.float64)
            _assert_tensor_stacks_operators(h, levi_civita(h))
            _assert_tensor_stacks_operators(h, weyl_connection(h, th))
