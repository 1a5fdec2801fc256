"""The scaled-integer lane against plain Fraction arithmetic.

Exact work runs on Python ints over a common denominator: fraction-free
elimination, integer Faddeev-LeVerrier and Bareiss, whole-tensor
curvature, invariance solves, the closure seeds and the commutant. Each is
checked here against a small Fraction reference that does the same job
the obvious way, or against the Fraction route the code used to take.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplab import holonomy
from lcplab.gallery import all_entries
from lcplab.holonomy import de_rham_splitting, holonomy_algebra, symmetric_commutant
from lcplab.lcp import lcp_data_to_float, weyl_connection
from lcplab.liealg import (curvature_operator, curvature_tensor, levi_civita,
                           to_float_algebra)
from lcplab.linalg import (_ExactEchelon, _rref, canonical_rows, charpoly_exact, exact_det,
                           exact_solve, invert, is_zero_matrix, nullspace_rows,
                           rank_and_nullspace, residual_band, restrict_operator, scale_of)
from lcplab.scalars import (EXACT, exact_array, from_scaled, to_float_array, to_scaled,
                            zeros_array)


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


def _reference_nullspace(rows, ncols):
    """Nullspace basis read off the reference RREF: 1 at each free column."""
    rref, pivots = _reference_rref(rows)
    null = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[f]
        null.append(v)
    return null


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
@given(_rational_matrices(), st.data())
def test_fraction_free_rref_matches_fraction_reference(rows, data):
    a = exact_array(rows)
    nrows, ncols = a.shape
    got_rows, got_pivots = _rref(a)
    want_rows, want_pivots = _reference_rref(rows)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert all(type(x) is Fraction for row in got_rows for x in row)

    # rows fed to the store one at a time, in any order, reach the same RREF
    store = _ExactEchelon()
    for i in data.draw(st.permutations(range(nrows))):
        store.insert(a[i])
    assert store.pivots == want_pivots
    assert [[Fraction(x, row[p]) for x in row]
            for row, p in zip(store.rows, store.pivots)] == want_rows

    # the nullspace: Fractions with a 1 at each free column, and on the
    # scaled form the primitive integer multiples of the same rows
    want_null = _reference_nullspace(rows, ncols)
    rank, null = rank_and_nullspace(a, EXACT)
    assert rank == len(want_pivots)
    assert null.basis.tolist() == want_null
    assert all(type(x) is Fraction for x in null.basis.reshape(-1))
    assert nullspace_rows(a, EXACT).tolist() == [to_scaled(exact_array(v))[0].tolist()
                                                 for v in want_null]

    # a right-hand side in the column span solves exactly; adding a vector
    # of the left nullspace takes it out of the span
    x0 = exact_array(data.draw(st.lists(_rationals, min_size=ncols, max_size=ncols)))
    b = a @ x0
    x = exact_solve(a, b)
    assert x is not None and (a @ x == b).all()
    for y in _reference_nullspace(a.T.tolist(), nrows):
        assert exact_solve(a, b + exact_array(y)) is None


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


# ---------------------------------------------------------------------------
# invariance solves, closure seeds and the commutant against the Fraction route


def _fraction_route_restrict(a, basis_rows, mode, tol):
    """restrict_operator as it ran before its exact solve stayed on ints:
    the images are rebuilt as Fractions and solved against the basis."""
    stack = a if a.ndim == 3 else a[None]
    k, m, n = stack.shape[0], basis_rows.shape[0], basis_rows.shape[1]
    bi, ai, d = to_scaled(basis_rows, stack)
    images = from_scaled(np.tensordot(ai, bi, axes=(2, 1)), d * d)
    rhs = np.transpose(images, (1, 0, 2)).reshape(n, k * m)
    if m == 0:
        x = zeros_array((0, 0), mode)
    elif mode == EXACT:
        x = exact_solve(basis_rows.T, rhs)
    else:
        x, *_ = np.linalg.lstsq(basis_rows.T, rhs, rcond=None)
        res = np.abs(basis_rows.T @ x - rhs).reshape(n, k, m).max(axis=(0, 2))
        sizes = np.abs(images).max(axis=(1, 2))
        band = residual_band(tol) * np.maximum(scale_of(basis_rows), sizes)
        if np.any(res > band):
            x = None
    if x is None:
        return None
    out = np.transpose(x.reshape(m, k, m), (1, 0, 2))
    return out if a.ndim == 3 else out[0]


def _fraction_route_commutant(ops, gram, mode, tol):
    """symmetric_commutant as it ran when its starting basis was built as
    Fractions, one matrix product G^-1 (E_ij + E_ji) at a time."""
    n = gram.shape[0]
    ginv, den = to_scaled(invert(gram, mode, tol))
    basis = []
    for i in range(n):
        for j in range(i, n):
            s = np.zeros((n, n), dtype=ginv.dtype)
            s[i, j] = 1
            s[j, i] = 1
            basis.append(from_scaled(ginv @ s, den))
    work = np.stack([to_scaled(p)[0] for p in basis])
    reduced = False
    for a in [to_scaled(a)[0] for a in ops]:
        if len(work) <= 1:
            break
        k = (work @ a - a @ work).reshape(len(work), -1).T
        if is_zero_matrix(k, mode, tol, scale=scale_of(a) * scale_of(work)):
            continue
        _, null = rank_and_nullspace(k, mode, tol)
        if null.dim == len(work):
            continue
        reduced = True
        coeffs = np.array([to_scaled(c)[0] for c in null.basis]).reshape(null.dim, len(work))
        work = (coeffs @ work.reshape(len(work), -1)).reshape(-1, n, n)
    return basis if not reduced else [from_scaled(p, 1) for p in work]


def _same(got, want):
    """Equal as Fractions in exact mode, bit for bit in float mode; or both None."""
    if got is None or want is None:
        return got is None and want is None
    return (got.dtype == want.dtype and got.shape == want.shape
            and (got.tobytes() == want.tobytes() if got.dtype == np.float64
                 else np.array_equal(got, want)))


def _positive_multiple(got, want):
    """got = c * want for some c > 0 (any want, including zero)."""
    got, want = got.reshape(-1), want.reshape(-1)
    k = next((i for i, x in enumerate(want) if x != 0), None)
    if k is None:
        return all(x == 0 for x in got)
    return got[k] * want[k] > 0 and all(x * want[k] == y * got[k] for x, y in zip(got, want))


def _lane_cases(random_corpus):
    """Every gallery entry with its structure data, and 30 corpus algebras,
    each in its own mode and as a float twin."""
    cases = [(e.algebra, e.lcp) for e in all_entries()] + [(g, None) for g in random_corpus[:30]]
    for g, data in cases:
        yield g, data
        if g.mode == EXACT:
            yield to_float_algebra(g), None if data is None else lcp_data_to_float(data)


def _subspaces(g, data):
    """Proper de Rham factors, the structure's ideal, and coordinate spans
    that are usually not invariant."""
    n = g.dim
    eye = np.eye(n, dtype=int) if g.mode == EXACT else np.eye(n)
    rows = [exact_array(eye[:k]) if g.mode == EXACT else eye[:k] for k in range(1, n)]
    rows += [f.basis for f in de_rham_splitting(g).factors if f.dim < n]
    if data is not None:
        rows.append(data.flat_ideal.basis)
    return rows


def test_restrict_operator_matches_fraction_route(random_corpus):
    checked = invariant = 0
    for g, data in _lane_cases(random_corpus):
        conn = levi_civita(g)
        stacks = [conn.operators, np.transpose(g.bracket, (0, 2, 1))]
        hol = holonomy_algebra(g, conn)
        if hol.dim:
            stacks.append(np.stack(hol.basis))
        if data is not None:
            stacks.append(weyl_connection(g, data.lee_covector).operators)
        for rows in _subspaces(g, data):
            for ops in stacks:
                got = restrict_operator(ops, rows, g.mode, g.tol)
                assert _same(got, _fraction_route_restrict(ops, rows, g.mode, g.tol)), g
                assert _same(restrict_operator(ops[0], rows, g.mode, g.tol),
                             _fraction_route_restrict(ops[0], rows, g.mode, g.tol)), g
                checked += 1
                invariant += got is not None
    # both outcomes are exercised
    assert 0 < invariant < checked


def test_commutant_matches_fraction_route(random_corpus):
    reduced = 0
    for g, _ in _lane_cases(random_corpus):
        conn = levi_civita(g)
        for ops in (list(holonomy_algebra(g, conn).basis), list(conn.operators)):
            got = symmetric_commutant(ops, g.gram, g.mode, g.tol)
            want = _fraction_route_commutant(ops, g.gram, g.mode, g.tol)
            assert len(got) == len(want), g
            reduced += len(got) < g.dim * (g.dim + 1) // 2
            if g.mode == EXACT:
                flat = [np.stack([p.reshape(-1) for p in c]) for c in (got, want)]
                assert np.array_equal(*(canonical_rows(c, EXACT, g.tol) for c in flat)), g
                assert all(type(x) is Fraction for p in got for x in p.reshape(-1))
            else:
                assert all(_same(p, q) for p, q in zip(got, want)), g
    assert reduced > 0


def test_closure_seeds_are_positive_multiples_of_the_curvature(random_corpus):
    for g, _ in _lane_cases(random_corpus):
        conn = levi_civita(g)
        seeds, nabla = holonomy._closure_inputs(g, conn)
        curv = curvature_tensor(g, conn)
        sc = scale_of(g.bracket, g.gram)
        n = g.dim
        want = [to_scaled(curv[i, j])[0] for i in range(n) for j in range(i + 1, n)
                if not is_zero_matrix(curv[i, j], g.mode, g.tol, scale=sc * sc)]
        assert len(seeds) == len(want) and len(nabla) == n, g
        if g.mode == EXACT:
            assert all(type(x) is int for m in [*seeds, *nabla] for x in m.reshape(-1))
            assert all(_positive_multiple(a, b) for a, b in zip(seeds, want)), g
            assert all(_positive_multiple(a, to_scaled(conn.operator(k))[0])
                       for k, a in enumerate(nabla)), g
        else:
            assert all(_same(a, b) for a, b in zip(seeds, want)), g
            assert all(_same(a, conn.operator(k)) for k, a in enumerate(nabla)), g
