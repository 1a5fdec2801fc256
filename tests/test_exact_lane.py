"""The scaled-integer lane against plain Fraction arithmetic.

Exact work runs on Python ints over a common denominator: fraction-free
elimination, integer Berkowitz and Bareiss, whole-tensor
curvature, invariance solves, the closure seeds and the commutant. Each is
checked here against a small Fraction reference that does the same job
the obvious way, or against the Fraction route the code used to take.
"""
import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_multiple, subspaces_equal

from lcplab import holonomy, lcp, liealg, linalg, scalars
from lcplab.base import int_charpoly, int_det
from lcplab.cli import run_analysis
from lcplab.fileio import load_algebra_file, save_algebra_file
from lcplab.gallery import all_entries, sl_example
from lcplab.holonomy import (common_kernel, de_rham_splitting, holonomy_algebra,
                             reducibility_witness, symmetric_commutant)
from lcplab.lcp import (LcpData, lcp_data_to_float, lcp_decomposable, validate_lcp,
                        weyl_connection)
from lcplab.liealg import (LEVI_CIVITA, WEYL, InvariantConnection, curvature_operator,
                           curvature_tensor, direct_sum_algebra, levi_civita,
                           to_float_algebra)
from lcplab.linalg import (Subspace, _ExactEchelon, _rref, canonical_rows,
                           exact_det, is_zero_matrix, orthocomplement, rank_and_nullspace,
                           residual_band, restrict_operator, scale_of, scaled_inverse,
                           solve_linear, support_indices)
from lcplab.scalars import (DEFAULT_TOL, EXACT, exact_array, from_scaled, int_commutator,
                            int_matmul, int_tensordot, to_float_array, to_scaled, zeros_array)


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


def _reference_solve(a, b):
    """One solution of a @ x = b (b a matrix) read off the reference RREF of
    [a | b], free variables zero; None if inconsistent."""
    n = a.shape[1]
    rref, pivots = _reference_rref(exact_array(np.concatenate([a, b], axis=1)).tolist())
    if pivots and pivots[-1] >= n:
        return None
    x = np.full((n, b.shape[1]), Fraction(0), dtype=object)
    for row, p in zip(rref, pivots):
        x[p] = row[n:]
    return x


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

    # integer rows fed to the store one at a time, in any order, reach the
    # same RREF
    store = _ExactEchelon()
    ints = to_scaled(a)[0]
    for i in data.draw(st.permutations(range(nrows))):
        store.insert(ints[i:i + 1])
    assert store.pivots == want_pivots
    assert [[Fraction(x, row[p]) for x in row]
            for row, p in zip(store.rows, store.pivots)] == want_rows

    # the nullspace: primitive integer rows, each a positive multiple of the
    # reference row that is 1 at its free column
    want_null = _reference_nullspace(rows, ncols)
    rank, null = rank_and_nullspace(a, EXACT)
    assert rank == len(want_pivots)
    free = [f for f in range(ncols) if f not in want_pivots]
    assert [from_scaled(v, v[f]).tolist() for v, f in zip(null.basis, free)] == want_null
    assert all(type(x) is int for x in null.basis.reshape(-1))
    assert all(np.gcd.reduce(v.tolist()) == 1 for v in null.basis)

    # a right-hand side in the column span solves exactly; adding a vector
    # of the left nullspace takes it out of the span
    x0 = exact_array(data.draw(st.lists(_rationals, min_size=ncols, max_size=ncols)))
    b = a @ x0
    x, den = solve_linear(a, b, EXACT, DEFAULT_TOL)
    assert den > 0 and all(type(v) is int for v in x)
    assert (a @ from_scaled(x, den) == b).all()
    for y in _reference_nullspace(a.T.tolist(), nrows):
        assert solve_linear(a, b + exact_array(y), EXACT, DEFAULT_TOL) is None


@st.composite
def _tall_integer_matrices(draw):
    """Integer matrices with more rows than columns, often full rank well
    before the last row and sometimes short of it."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(ncols + 1, 4 * ncols + 4))
    rank = draw(st.integers(0, ncols))
    basis = [draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
             for _ in range(rank)]
    rows = [[sum(c * b[j] for c, b in zip(mix, basis)) for j in range(ncols)]
            for mix in draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank,
                                              max_size=rank),
                                     min_size=nrows, max_size=nrows))]
    return rows


@settings(max_examples=200, deadline=None)
@given(_tall_integer_matrices(), st.data())
def test_tall_integer_matrices_match_fraction_reference(rows, data):
    # the store stops once it holds as many rows as there are columns
    a = np.array(rows, dtype=object)
    nrows, ncols = a.shape
    want_rows, want_pivots = _reference_rref([[Fraction(x) for x in row] for row in rows])
    assert _rref(a) == (want_rows, want_pivots)
    rank, null = rank_and_nullspace(a, EXACT)
    assert rank == len(want_pivots) == linalg.matrix_rank(a, EXACT, DEFAULT_TOL)
    free = [f for f in range(ncols) if f not in want_pivots]
    assert ([from_scaled(v, v[f]).tolist() for v, f in zip(null.basis, free)]
            == _reference_nullspace(exact_array(rows).tolist(), ncols))
    b = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows)),
                 dtype=object).reshape(nrows, 1)
    got, want = solve_linear(a, b, EXACT, DEFAULT_TOL), _reference_solve(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert (from_scaled(*got) == want).all()


def test_echelon_store_stops_at_full_rank(monkeypatch):
    # 400 rows of width 6, the first 6 independent: only they are added
    rng = np.random.default_rng(6)
    head = np.triu(rng.integers(1, 9, size=(6, 6))).astype(object)
    tail = rng.integers(-4, 5, size=(394, 6)).astype(object) @ head
    a = np.concatenate([head, tail])
    calls = []
    add = _ExactEchelon.add

    def counting(self, v):
        calls.append(1)
        return add(self, v)
    monkeypatch.setattr(_ExactEchelon, "add", counting)
    assert linalg.matrix_rank(a, EXACT, DEFAULT_TOL) == 6 and len(calls) == 6
    calls.clear()
    rank, null = rank_and_nullspace(a, EXACT)
    assert rank == 6 and null.dim == 0 and len(calls) == 6


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
    lambda n: st.lists(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_matches_fraction_recursion(rows):
    n = len(rows)
    a = exact_array(rows).reshape(n, n)
    assert tuple(int_charpoly(rows)) == _reference_charpoly(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_det_matches_cofactor_expansion(rows):
    n = len(rows)
    a = exact_array(rows).reshape(n, n)
    assert exact_det(a) == _reference_det(a)


def _seeded_int_matrix(rng, n, bound):
    """An n x n integer matrix with entries in [-bound, bound]; some get a
    zero row, a repeated row or all-small entries."""
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if n and kind == 1:
        rows[rng.randrange(n)] = [0] * n
    elif n > 1 and kind == 2:
        rows[0] = list(rows[-1])
    elif kind == 3:
        rows = [[x % 7 - 3 for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_integer_kernels_match_the_fraction_references(seed):
    # entries up to 10**40, n <= 10; the cofactor expansion runs to n = 7,
    # beyond that det(a) is checked as (-1)**n times the constant term
    rng = random.Random(seed)
    for n in range(11):
        rows = _seeded_int_matrix(rng, n, 10**40 if seed % 2 else 10**3)
        a = exact_array(rows).reshape(n, n)
        poly = int_charpoly(rows)
        assert all(type(c) is int for c in poly)
        assert tuple(poly) == _reference_charpoly(a)
        det = int_det(rows)
        assert type(det) is int and det == (-1) ** n * poly[0]
        if n <= 7:
            assert det == _reference_det(a)


def test_integer_kernels_leave_their_input_unchanged():
    rows = [[0, 2, 1], [3, 0, 4], [5, 6, 0]]
    copy = [list(r) for r in rows]
    assert int_det(rows) == 58 and int_charpoly(rows) == [-58, -35, 0, 1]
    assert rows == copy


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


def _fraction_route_restrict(stack, basis_rows, mode, tol):
    """restrict_operator as it ran before its exact solve stayed on ints:
    the images are rebuilt as Fractions and solved against the basis."""
    k, m, n = stack.shape[0], basis_rows.shape[0], basis_rows.shape[1]
    bi, ai, d = to_scaled(basis_rows, stack)
    images = from_scaled(np.tensordot(ai, bi, axes=(2, 1)), d * d)
    rhs = np.transpose(images, (1, 0, 2)).reshape(n, k * m)
    if m == 0:
        x = zeros_array((0, 0), mode)
    elif mode == EXACT:
        x = _reference_solve(basis_rows.T, rhs)
    else:
        x, *_ = np.linalg.lstsq(basis_rows.T, rhs, rcond=None)
        res = np.abs(basis_rows.T @ x - rhs).reshape(n, k, m).max(axis=(0, 2))
        sizes = np.abs(images).max(axis=(1, 2))
        band = residual_band(tol) * np.maximum(scale_of(basis_rows), sizes)
        if np.any(res > band):
            x = None
    if x is None:
        return None
    return np.transpose(x.reshape(m, k, m), (1, 0, 2))


def _fraction_route_commutant(ops, gram, mode, tol, combination_first=True):
    """symmetric_commutant with one constraint matrix per operator, the
    upper triangle of S a - hat S. Exact mode works in the Gram frame: the
    starting basis of symmetric S is built as Fractions, hat = -a^T, and
    each kept S goes back to G^-1 S by one Fraction product. Float mode
    works in the unit frame, G = L L^T: each a becomes L^T a L^-T, which
    is also hat, and each kept S goes back to L^-T S L^T. There the
    constraint of sum (i + 1) a_i comes first, on the symmetric matrices
    y_i y_j^T + y_j y_i^T for eigenvectors y_i, y_j of one eigenvalue group
    of its M = A^T A, as it does there; with ``combination_first`` False
    the operators come one at a time, in order, on every symmetric S."""
    n = gram.shape[0]
    iu, ju = np.triu_indices(n)
    basis = []
    for i, j in zip(iu, ju):
        s = zeros_array((n, n), mode)
        s[i, j] = s[j, i] = 1
        basis.append(s)
    if mode == EXACT:
        ginv = from_scaled(*scaled_inverse(gram, mode))
        scaled = [to_scaled(a)[0] for a in ops]
    else:
        low = np.linalg.cholesky((gram + gram.T) / 2.0)
        linv = np.linalg.inv(low)
        scaled = [low.T @ a @ linv.T for a in ops]
    if combination_first and mode != EXACT and ops:
        if len(ops) > 1:
            combo = np.arange(1.0, len(ops) + 1) @ np.reshape(scaled, (len(ops), -1))
            scaled.insert(0, combo.reshape(n, n))
        lam, y = np.linalg.eigh(scaled[0].T @ scaled[0])
        group = [0]
        for gap in np.diff(lam):
            group.append(group[-1] + (gap > holonomy.merge_band(tol) * lam[-1]))
        if group[-1]:
            basis = [np.outer(y[:, i], y[:, j]) + np.outer(y[:, i], y[:, j]).T
                     for i, j in zip(iu, ju) if group[i] == group[j]]
    work = np.stack([to_scaled(s)[0] for s in basis])
    for a in scaled:
        if len(work) <= 1:
            break
        hat = -a.T if mode == EXACT else a
        k = (work @ a - hat @ work)[:, iu, ju].T
        if is_zero_matrix(k, mode, tol, scale=scale_of(a, hat) * scale_of(work)):
            continue
        _, null = rank_and_nullspace(k, mode, tol)
        if null.dim == len(work):
            continue
        coeffs = np.array([to_scaled(c)[0] for c in null.basis]).reshape(null.dim, len(work))
        work = (coeffs @ work.reshape(len(work), -1)).reshape(-1, n, n)
    if mode == EXACT:
        return [ginv @ from_scaled(s, 1) for s in work]
    return [linv.T @ s @ low.T for s in work]


def _same(got, want):
    """Equal as Fractions in exact mode, bit for bit in float mode; or both None."""
    if got is None or want is None:
        return got is None and want is None
    return (got.dtype == want.dtype and got.shape == want.shape
            and (got.tobytes() == want.tobytes() if got.dtype == np.float64
                 else np.array_equal(got, want)))


def _same_up_to_scale(got, want):
    """A positive multiple of the Fractions in exact mode, bit for bit in
    float mode; or both None."""
    if got is None or got.dtype != object:
        return _same(got, want)
    return want is not None and got.shape == want.shape and positive_multiple(got, want)


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


@pytest.fixture(scope="module")
def invariance_cases(random_corpus):
    """(algebra, subspace rows, operator stack) for every lane case: the
    Levi-Civita operators, the ad operators, the holonomy basis and the
    Weyl operators of the structure data, each whole and its first
    operator alone, against each subspace of :func:`_subspaces`."""
    out = []
    for g, data in _lane_cases(random_corpus):
        conn = levi_civita(g)
        stacks = [conn.operators, np.transpose(g.bracket, (0, 2, 1))]
        hol = holonomy_algebra(g, conn)
        if hol.dim:
            stacks.append(np.stack(hol.basis))
        if data is not None:
            stacks.append(weyl_connection(g, data.lee_covector).operators)
        out += [(g, rows, part) for rows in _subspaces(g, data)
                for ops in stacks for part in (ops, ops[:1])]
    return out


def test_restrict_operator_matches_fraction_route(invariance_cases):
    invariant = 0
    for g, rows, ops in invariance_cases:
        got = restrict_operator(ops, rows, g.mode, g.tol)
        assert _same_up_to_scale(got, _fraction_route_restrict(ops, rows, g.mode, g.tol)), g
        invariant += got is not None
    # both outcomes are exercised
    assert 0 < invariant < len(invariance_cases)


def test_is_invariant_matches_fraction_route(invariance_cases):
    # exact mode decides by the annihilator alone, with no solve
    seen = {EXACT: set(), "float": set()}
    for g, rows, ops in invariance_cases:
        got = linalg.is_invariant(ops, rows, g.mode, g.tol)
        assert got == (_fraction_route_restrict(ops, rows, g.mode, g.tol) is not None), g
        seen[g.mode].add(got)
    # both outcomes are exercised in each lane
    assert seen == {EXACT: {True, False}, "float": {True, False}}


def _solve_route_lee_form(g, u, h):
    """lee_form_from_splitting as it ran before its one inverse: the
    coordinates of every image [e_x, h_r] solved for against the stacked
    Fraction basis, in one system n * dim(h) columns wide."""
    stacked = np.concatenate([h.basis, u.basis], axis=0)
    c, dc = g.scaled_bracket
    hb, dh = to_scaled(h.basis)
    images = int_tensordot(c, hb, axes=(1, 1))
    rhs = np.transpose(images, (1, 0, 2)).reshape(g.dim, -1)
    coords, den = solve_linear(stacked.T, rhs, g.mode, g.tol)
    traces = np.trace(coords[:h.dim].reshape(h.dim, g.dim, h.dim), axis1=0, axis2=2)
    return from_scaled(-traces, u.dim * dc * dh * den)


def _rational_isometry(g, data):
    """The algebra and its structure data in the basis e_i + (i + 1)/2 e_(i+1),
    a rational change of basis with the Gram matrix carried along."""
    n = g.dim
    q = np.identity(n, dtype=int).astype(object)
    for i in range(n - 1):
        q[i, i + 1] = Fraction(i + 1, 2)
    qinv = from_scaled(*scaled_inverse(q, EXACT))

    def moved(s):
        return Subspace(n, s.basis @ qinv, EXACT)
    return liealg.transform_algebra(g, q), LcpData(moved(data.flat_ideal), q @ data.lee_covector,
                                                   moved(data.complement))


def test_lee_form_matches_the_solve_route():
    checked = 0
    for e in all_entries():
        if e.lcp is None or e.lcp.complement is None or e.algebra.mode != EXACT:
            continue
        for g, data in ((e.algebra, e.lcp), _rational_isometry(e.algebra, e.lcp)):
            u, h = data.flat_ideal, data.complement
            got = lcp.lee_form_from_splitting(g, u, h)
            assert list(got) == list(_solve_route_lee_form(g, u, h)), e.name
            assert list(got) == list(data.lee_covector), e.name
            assert validate_lcp(g, data).lee_formula_consistent, e.name
            checked += 1
    assert checked == 6


def test_no_wide_elimination_in_one_exact_analysis(monkeypatch):
    # invariance is decided by annihilators, n wide, and coordinates come
    # from inverses of at most n x n matrices, 2n wide: one exact
    # sl2_semidirect analysis with its structure data ran eliminations 182
    # and 196 columns wide when each invariance test solved for every image
    widths = []
    add = _ExactEchelon.add

    def spy(self, v):
        widths.append(len(v))
        return add(self, v)
    monkeypatch.setattr(_ExactEchelon, "add", spy)
    entry = sl_example(2)
    g = dataclasses.replace(entry.algebra)  # a fresh algebra: nothing cached yet
    report, code = run_analysis(g, entry.lcp)
    assert code == 0 and report["lcp_report"]["overall"]
    assert widths and max(widths) <= 2 * g.dim == 28, sorted(set(widths))


def test_commutant_matches_fraction_route(random_corpus):
    reduced = 0
    for g, _ in _lane_cases(random_corpus):
        conn = levi_civita(g)
        # the commutant takes each operator as rationals or as any positive
        # integer multiple of it
        for ops in (list(holonomy_algebra(g, conn).basis), list(conn.operators),
                    list(conn.scaled_operators)):
            got = symmetric_commutant(ops, g.gram, g.mode, g.tol)
            want = _fraction_route_commutant(ops, g.gram, g.mode, g.tol)
            assert len(got) == len(want), g
            reduced += len(got) < g.dim * (g.dim + 1) // 2
            if g.mode == EXACT:
                flat = [np.stack([p.reshape(-1) for p in c]) for c in (got, want)]
                assert np.array_equal(*(canonical_rows(c, EXACT, g.tol) for c in flat)), g
                assert all(type(x) is int for p in got for x in p.reshape(-1))
            else:
                assert all(_same(p, q) for p, q in zip(got, want)), g
    assert reduced > 0


def test_float_commutant_spans_what_the_incremental_order_spans(random_corpus):
    # the combination sum (i + 1) a_i lies in the operators' span, so
    # imposing it first changes the basis the commutant comes in, not its span
    reduced = 0
    for g, _ in _lane_cases(random_corpus):
        if g.mode == EXACT:
            continue
        conn = levi_civita(g)
        for ops in (list(holonomy_algebra(g, conn).basis), list(conn.operators)):
            got = symmetric_commutant(ops, g.gram, g.mode, g.tol)
            want = _fraction_route_commutant(ops, g.gram, g.mode, g.tol, combination_first=False)
            spans = [Subspace(g.dim ** 2, np.stack([p.reshape(-1) for p in c]), g.mode)
                     for c in (got, want)]
            assert subspaces_equal(*spans, g.tol), g
            reduced += len(got) < g.dim * (g.dim + 1) // 2
    assert reduced > 0


# ---------------------------------------------------------------------------
# the float commutant's start: known commutants in ill-conditioned frames


def _rotation(theta):
    return np.array([[0.0, -theta], [theta, 0.0]])


def _so3():
    basis = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        x = np.zeros((3, 3))
        x[i, j], x[j, i] = -1.0, 1.0
        basis.append(x)
    return basis


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out, k = np.zeros((n, n)), 0
    for b in blocks:
        out[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    return out


def _known_commutants(tol):
    """name -> (skew matrices, dimension of their symmetric commutant)."""
    # the two speeds of the last case are within the merge band of the
    # start: 1 - t**2 is half the band times ||M|| = 9
    t = math.sqrt(1.0 - holonomy.merge_band(tol) * 9.0 / 2.0)
    zero1, zero2 = np.zeros((1, 1)), np.zeros((2, 2))
    return {
        # two equal copies of so(3) and a kernel line, as in sl2 + sl2: the
        # commutant mixes the copies, [[a, b], [b, c]] on them and d on the line
        "isotypic": ([_block_diagonal(x, x, zero1) for x in _so3()], 4),
        # one operator, two planes turning at the same speed: Hermitian 2 x 2
        # on them, and the scalars on the third plane and on the line
        "equal_speeds": ([_block_diagonal(_rotation(1.0), _rotation(1.0), _rotation(2.0),
                                          zero1)], 6),
        # so(3) beside a plane that every operator kills: Sym(2) there
        "kernel_block": ([_block_diagonal(x, zero2) for x in _so3()], 4),
        # two different speeds that the start merges: the constraint itself
        # separates them, and each plane keeps only the scalars
        "close_speeds": ([_block_diagonal(_rotation(1.0), _rotation(t), _rotation(3.0))], 3),
    }


def _unit_frame_span(comm, low):
    """Orthonormal columns spanning the L^T w L^-T, symmetric for G = L L^T."""
    rows = np.stack([(low.T @ w @ np.linalg.inv(low).T).reshape(-1) for w in comm])
    return np.linalg.qr(rows.T)[0]


@pytest.mark.parametrize("rank_tol", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("spread", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("case", ["isotypic", "equal_speeds", "kernel_block", "close_speeds"])
def test_float_commutant_spans_the_known_commutant(case, spread, rank_tol):
    # G = L L^T with L = diag(1 .. spread) (I + random strictly lower part),
    # so cond(G) is from about 30 to 1.5e9; a = L^-T R A R^T L^T is G-skew
    # for a random rotation R, and its commutant that of the skew A, mapped
    tol = scalars.TolerancePolicy(rank_tol=rank_tol)
    hats, dim = _known_commutants(tol)[case]
    n = hats[0].shape[0]
    rng = np.random.default_rng(n)
    r = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lower = np.eye(n) + np.tril(rng.uniform(-1, 1, (n, n)), -1)
    low = np.diag(np.geomspace(1.0, spread, n)) @ lower
    gram = low @ low.T
    ops = [np.linalg.solve(low.T, r @ h @ r.T @ low.T) for h in hats]
    got = symmetric_commutant(ops, gram, scalars.FLOAT, tol)
    want = _fraction_route_commutant(ops, gram, scalars.FLOAT, tol, combination_first=False)
    assert len(got) == len(want) == dim
    a, b = _unit_frame_span(got, low), _unit_frame_span(want, low)
    assert np.linalg.norm(a @ a.T - b @ b.T, 2) <= 1e-9


def test_float_commutant_runs_no_svd_over_every_symmetric_operator(monkeypatch):
    # the float sum of sl2_semidirect with itself (dimension 28): the start
    # from one eigendecomposition keeps every SVD of its commutant narrower
    # than the n(n + 1)/2 = 406 symmetric operators
    sl2 = sl_example(2).algebra
    g = to_float_algebra(direct_sum_algebra(sl2, sl2))
    seeds, nabla = holonomy._closure_inputs(g, g.levi_civita)
    widths = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        widths.append(a.shape[1])
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    comm = symmetric_commutant(np.concatenate([np.stack(seeds), nabla]), g.gram, g.mode, g.tol)
    monkeypatch.undo()
    # two curved factors, two projections
    assert len(comm) == 2
    assert widths and max(widths) < 28 * 29 // 2, widths


def test_float_commutant_refuses_a_gram_that_is_not_positive_definite():
    # a boost is skew for the Lorentz form, which has no unit frame
    boost, lorentz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        symmetric_commutant([boost], lorentz, scalars.FLOAT, DEFAULT_TOL)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.selfadjoint_eigensplit(boost, lorentz, scalars.FLOAT, DEFAULT_TOL)


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
            assert all(positive_multiple(a, b) for a, b in zip(seeds, want)), g
            assert all(positive_multiple(a, to_scaled(conn.operator(k))[0])
                       for k, a in enumerate(nabla)), g
        else:
            assert all(_same(a, b) for a, b in zip(seeds, want)), g
            assert all(_same(a, conn.operator(k)) for k, a in enumerate(nabla)), g


def test_one_levi_civita_and_one_gram_inverse_per_analysis(monkeypatch):
    # the split, the Weyl connection, the Lee vector and the so(g) basis
    # share them; separate builds made 2 Levi-Civita connections and 5
    # inversions of the gram matrix here
    entry = sl_example(2)
    g = dataclasses.replace(entry.algebra)  # a fresh algebra: nothing cached yet
    kinds, inversions = [], []
    init = InvariantConnection.__init__

    def counting_init(self, scaled, kind, mode):
        kinds.append(kind)
        init(self, scaled, kind, mode)
    solve = linalg._solve_scaled

    def counting_solve(a, b):
        inversions.append(a is g.scaled_gram[0])
        return solve(a, b)
    # every connection is made through the one class and every exact
    # inverse through the one solve, however they are imported
    monkeypatch.setattr(InvariantConnection, "__init__", counting_init)
    monkeypatch.setattr(linalg, "_solve_scaled", counting_solve)
    report, code = run_analysis(g, entry.lcp)
    assert code == 0 and report["lcp_report"]["overall"]
    assert kinds == [LEVI_CIVITA, WEYL]
    assert inversions.count(True) == 1


# ---------------------------------------------------------------------------
# zero tests, computed subspaces and the Fraction budget


def test_exact_zero_tests_on_object_arrays():
    big = 2 ** 70
    zero = np.array([[0, Fraction(0)], [0, 0]], dtype=object)
    assert is_zero_matrix(zero, EXACT, DEFAULT_TOL)
    assert support_indices(zero, EXACT, DEFAULT_TOL) == ()
    for x in (big, -big, -1, Fraction(-1, 3), 2 ** 64 + 1):
        m = np.array([[0, Fraction(0), 0], [0, 0, x]], dtype=object)
        assert not is_zero_matrix(m, EXACT, DEFAULT_TOL)
        assert support_indices(m, EXACT, DEFAULT_TOL) == (2,)
    # a sum that cancels only beyond 64 bits is zero
    assert is_zero_matrix(np.array([big + 1 - big - 1, 0], dtype=object), EXACT, DEFAULT_TOL)
    rows = np.array([[big, 0, 0, -big], [0, 0, Fraction(0), 3]], dtype=object)
    assert support_indices(rows, EXACT, DEFAULT_TOL) == (0, 3)
    for shape in ((0,), (0, 3), (2, 0)):
        assert is_zero_matrix(np.zeros(shape, dtype=object), EXACT, DEFAULT_TOL)
    assert support_indices(np.zeros((0, 3), dtype=object), EXACT, DEFAULT_TOL) == ()


def test_commutant_divides_out_each_operators_content(monkeypatch):
    # an operator given as a multiple of itself, as the common denominator
    # of a restricted stack makes it, sets the same constraint matrices:
    # their entries do not grow with the multiple
    g = sl_example(2).algebra
    ops = [a // math.gcd(*a.reshape(-1).tolist()) for a in holonomy_algebra(g).basis[:20]]
    seen = []
    real = holonomy.rank_and_nullspace

    def recording(k, mode, tol):
        seen.append(k)
        return real(k, mode, tol)
    monkeypatch.setattr(holonomy, "rank_and_nullspace", recording)
    want = symmetric_commutant(ops, g.gram, EXACT, g.tol)
    plain, seen[:] = list(seen), []
    got = symmetric_commutant([(6 + k) * a for k, a in enumerate(ops)], g.gram, EXACT, g.tol)
    assert plain and len(seen) == len(plain)
    assert all(np.array_equal(k, m) for k, m in zip(seen, plain))
    assert len(got) == len(want) and all(np.array_equal(p, q) for p, q in zip(got, want))


def _fraction_nullspace(a):
    """Nullspace rows of an exact matrix from the Fraction reference."""
    n = a.shape[1]
    return exact_array(_reference_nullspace(exact_array(a).tolist(), n)).reshape(-1, n)


def _canonical(rows):
    return canonical_rows(rows, EXACT, DEFAULT_TOL).tolist()


def _check_integer_rows(s, reference):
    """s is exact, holds only Python ints and spans what the reference rows span."""
    assert s.mode == EXACT and s.dim == reference.shape[0]
    assert all(type(x) is int for x in s.basis.reshape(-1))
    assert _canonical(s.basis) == _canonical(reference)


def _split_references(splits):
    """Each eigenspace of each recorded exact split, with its reference: the
    Fraction nullspace of p - lambda I."""
    for p, split in splits:
        for val, eig in split.pairs:
            yield eig, _fraction_nullspace(exact_array(p) - val * np.identity(p.shape[0], dtype=int))


def test_computed_subspaces_are_integer_rows_spanning_the_fraction_route(random_corpus,
                                                                          monkeypatch):
    """The kernel, its orthocomplement, every eigenspace, every factor and
    both halves of every reducing pair, on the gallery and 30 corpus
    algebras in exact mode, against nullspaces from Fraction elimination."""
    splits = []
    real_split = holonomy.selfadjoint_eigensplit

    def recording(p, gram, mode, tol):
        out = real_split(p, gram, mode, tol)
        if not out.promoted_to_float:
            splits.append((p, out))
        return out
    monkeypatch.setattr(holonomy, "selfadjoint_eigensplit", recording)
    cases = ([(e.algebra, e.lcp) for e in all_entries() if e.algebra.mode == EXACT]
             + [(g, None) for g in random_corpus[:30]])
    checked = dict.fromkeys(("kernel", "complement", "eigenspace", "factor", "pair"), 0)
    for g, data in cases:
        n = g.dim
        splits.clear()
        spl = de_rham_splitting(g)
        if spl.promoted_to_float:
            continue
        hol = spl.holonomy
        kernel = common_kernel(hol.basis, n, EXACT, g.tol)
        ref_kernel = (_fraction_nullspace(np.concatenate(hol.basis)) if hol.dim
                      else np.identity(n, dtype=int))
        _check_integer_rows(kernel, ref_kernel)
        w = orthocomplement(kernel, g.gram, g.tol)
        ref_w = (_fraction_nullspace(ref_kernel @ g.gram) if kernel.dim
                 else np.identity(n, dtype=int))
        _check_integer_rows(w, ref_w)
        checked["kernel"] += kernel.dim > 0
        checked["complement"] += 0 < w.dim
        # the factors: the kernel, then the eigenspaces of the last split,
        # the one that was taken, mapped into the algebra
        refs = [ref_kernel] if kernel.dim else []
        taken = [ref for _, ref in _split_references(splits[-1:])]
        refs += [ref @ ref_w for ref in taken] if taken else [ref_w] if w.dim else []
        assert len(refs) == len(spl.factors), g
        ref_of = []
        for f in spl.factors:
            match = [r for r in refs if _canonical(r) == _canonical(f.basis)]
            assert match, g
            _check_integer_rows(f, match[0])
            ref_of.append(match[0])
            checked["factor"] += 1
        pairs = []
        witness = reducibility_witness(g, splitting=spl)
        if witness is not None and len(spl.factors) >= 2:
            pairs.append((witness, [0], range(1, len(spl.factors))))
        if data is not None:
            dec = lcp_decomposable(g, data, splitting=spl, lcp_report=validate_lcp(g, data))
            if dec.witness is not None:
                rest = [i for i in range(len(spl.factors)) if i not in dec.touched_factors]
                pairs.append((dec.witness, dec.touched_factors, rest))
        for pair, one, two in pairs:
            _check_integer_rows(pair.s1, np.concatenate([ref_of[i] for i in one]))
            _check_integer_rows(pair.s2, np.concatenate([ref_of[i] for i in two]))
            checked["pair"] += 1
        if witness is not None and len(spl.factors) == 1 and witness.mode == EXACT:
            # a flat block cut along the eigenspaces of the last split
            (eig, ref), *rest = _split_references(splits[-1:])
            _check_integer_rows(witness.s1, ref)
            _check_integer_rows(witness.s2, np.concatenate([r for _, r in rest]))
            checked["pair"] += 1
        for eig, ref in _split_references(splits):
            _check_integer_rows(eig, ref)
            checked["eigenspace"] += 1
    # every kind of subspace is exercised
    assert min(checked.values()) > 0, checked


def _fractions_built(monkeypatch, fn, *args):
    """fn(*args), and the number of Fractions built while it ran."""
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    try:
        return fn(*args), built[0]
    finally:
        monkeypatch.undo()


def test_fraction_budget_of_one_exact_analysis(monkeypatch):
    # exact answers pass between stages as ints: Fractions are built only
    # where a value is read. One exact sl2_semidirect analysis with its
    # structure data built 8,972 of them when solves and nullspaces
    # returned Fractions, 279 while the Gram symmetry test ran on
    # Fractions, 83 since, and 265 while holonomy read the Gram matrix's
    # Fraction view, which it no longer reads
    entry = sl_example(2)
    g = dataclasses.replace(entry.algebra)  # a fresh algebra: nothing cached yet
    (report, code), built = _fractions_built(monkeypatch, run_analysis, g, entry.lcp)
    assert code == 0 and report["lcp_report"]["overall"]
    assert built <= 69, built


def test_fraction_budget_of_one_exact_load(monkeypatch, tmp_path):
    # a file's bracket and metric load straight to the scaled form: loading
    # exported sl2_semidirect built 871 Fractions while they were read as
    # Fractions and scaled afterwards. What is left is the LCP block's
    # values, 210 scalars, which make_lcp_data keeps as they were read
    entry = sl_example(2)
    path = str(tmp_path / "sl2_semidirect.json")
    save_algebra_file(path, entry.algebra, lcp=entry.lcp)
    (g, data, _), built = _fractions_built(monkeypatch, load_algebra_file, path)
    assert g.dim == 14 and data is not None
    assert built <= 210, built


def test_fraction_budget_of_the_sl3_build(monkeypatch):
    # the builders hand the algebra its scaled ints: exact sl_example(3)
    # built 29,840 Fractions while the semidirect sum passed its bracket to
    # make_algebra as Fractions, 24,389 of them that bracket. The cache's
    # wrapped function builds it as a cleared cache would
    entry, built = _fractions_built(monkeypatch, sl_example.__wrapped__, 3)
    assert entry.algebra.dim == 29
    assert built <= 8000, built


# ---------------------------------------------------------------------------
# the product kernel: float64 products of object ints below 2**53

_MATMUL_SHAPES = [((5, 4), (4, 3)), ((3, 5, 4), (4, 2)), ((4, 4), (6, 4, 4)),
                  ((2, 1, 3, 4), (1, 3, 4, 5)), ((7,), (7, 3)), ((3, 7), (7,)), ((6,), (6,)),
                  ((0, 4), (4, 3)), ((3, 0), (0, 2)), ((2, 0, 3), (3, 3))]
_TENSORDOT_CASES = [((3, 4, 5), (4, 5, 2), ([1, 2], [0, 1])), ((3, 4, 5), (5, 6), 1),
                    ((2, 3, 4), (3, 4, 5), 2), ((4, 3), (5, 4), (0, 1)),
                    ((3, 3, 3), (3, 3, 3), (2, 0)), ((0, 3), (3, 2), (1, 0))]
_COMMUTATOR_SHAPES = [((6, 4, 4), (4, 4)), ((4, 4), (6, 4, 4)), ((3, 1, 4, 4), (1, 3, 4, 4))]


def _regimes(inner):
    """(lowest, highest) magnitudes of a's and b's entries: small, near 2**26,
    just below and just above 2**53 for the whole sum, and far above 2**64.
    In the two regimes at the bound every entry sits near its maximum with
    one sign, so the sums come close to the bound."""
    top_b = (2**53 - 1) // (2**26 * max(inner, 1))
    return [((0, 16), (0, 16)), ((0, 2**26), (0, 2**26)),
            ((2**26 - 7, 2**26), (max(top_b - 7, 0), top_b)),
            ((2**26 - 7, 2**26), (top_b + 1, top_b + 9)),
            ((0, 2**70), (0, 2**66))]


def _ints(rng, shape, lo, hi, signed):
    """An object array of Python ints with magnitudes in [lo, hi]."""
    flat = [rng.randint(lo, hi) * (rng.choice((1, -1)) if signed else 1)
            for _ in range(math.prod(shape))]
    return np.array(flat + [0], dtype=object)[:-1].reshape(shape)


def _same_product(got, want):
    """Equal values of equal types: Python ints stay ints, Fractions Fractions."""
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.dtype == object and got.shape == want.shape
    assert [type(x) for x in got.reshape(-1)] == [type(x) for x in want.reshape(-1)]
    assert got.tolist() == want.tolist()


def _cases(shapes_of):
    rng = random.Random(2026)
    for shape_a, shape_b, inner, extra in shapes_of:
        for (lo_a, hi_a), (lo_b, hi_b) in _regimes(inner):
            for signed in (True, False):
                yield (_ints(rng, shape_a, lo_a, hi_a, signed),
                       _ints(rng, shape_b, lo_b, hi_b, signed), extra)


def _no_size_cutoff(monkeypatch):
    # small random shapes: only the bound decides which path a product takes
    monkeypatch.setattr(scalars, "KERNEL_MIN_WORK", 0)
    monkeypatch.setattr(scalars, "KERNEL_WORK_PER_ENTRY", 0)


def test_int_matmul_equals_the_object_product(monkeypatch):
    _no_size_cutoff(monkeypatch)
    shapes = [(sa, sb, sa[-1], None) for sa, sb in _MATMUL_SHAPES]
    for a, b, _ in _cases(shapes):
        _same_product(int_matmul(a, b), a @ b)


def test_int_tensordot_equals_the_object_product(monkeypatch):
    _no_size_cutoff(monkeypatch)
    shapes = []
    for sa, sb, axes in _TENSORDOT_CASES:
        summed = range(len(sa) - axes, len(sa)) if isinstance(axes, int) else np.atleast_1d(axes[0])
        shapes.append((sa, sb, math.prod(sa[i] for i in summed), axes))
    for a, b, axes in _cases(shapes):
        _same_product(int_tensordot(a, b, axes), np.tensordot(a, b, axes))


def test_int_commutator_equals_the_object_products(monkeypatch):
    _no_size_cutoff(monkeypatch)
    shapes = [(sa, sb, 2 * sa[-1], None) for sa, sb in _COMMUTATOR_SHAPES]
    for a, b, _ in _cases(shapes):
        _same_product(int_commutator(a, b), a @ b - b @ a)


def test_kernel_takes_the_float_path_exactly_below_the_bound(monkeypatch):
    # the float path is the one that calls back_to_ints; count its calls
    _no_size_cutoff(monkeypatch)
    calls = [0]
    back = scalars.back_to_ints

    def counting_back(r):
        calls[0] += 1
        return back(r)
    monkeypatch.setattr(scalars, "back_to_ints", counting_back)

    def float_path(a, b, product):
        calls[0] = 0
        product(a, b)
        return calls[0] == 1
    a = np.full((3, 2), 2**26, dtype=object)
    b = np.full((2, 3), 2**26, dtype=object)
    below = np.full((2, 3), 2**26 - 1, dtype=object)
    # max|a| * max|b| * inner: 2**53 is not below the bound, 2**53 - 2**27 is
    assert not float_path(a, b, int_matmul) and float_path(a, below, int_matmul)
    assert not float_path(a, -b, int_matmul) and float_path(-a, below, int_matmul)
    # a commutator sums two products: twice the inner length
    sq, half = np.full((2, 2), 2**26, dtype=object), np.full((2, 2), 2**25, dtype=object)
    assert not float_path(sq, half, int_commutator)
    assert float_path(sq, half - 1, int_commutator)
    # zeros times entries beyond the float range: max(1, max|a|) keeps them out
    zeros, huge = np.zeros((3, 2), dtype=object), np.full((2, 3), 2**1100, dtype=object)
    assert not float_path(zeros, huge, int_matmul)
    _same_product(int_matmul(zeros, huge), zeros @ huge)
    # a Fraction, a bool or a numpy integer anywhere keeps the object product
    for odd in (Fraction(1, 2), Fraction(2), True, np.int64(1)):
        c = below.copy()
        c[1, 2] = odd
        assert not float_path(a, c, int_matmul)
        _same_product(int_matmul(a, c), a @ c)


def test_kernel_size_cutoff():
    # with the module's cutoffs a large product goes through float64 and a
    # small or thin one stays on object ints; both agree with the object product
    rng = random.Random(7)
    big_a, big_b = _ints(rng, (40, 40), 0, 99, True), _ints(rng, (40, 40), 0, 99, True)
    assert scalars._product_floats(big_a, big_b, 40) is not None
    _same_product(int_matmul(big_a, big_b), big_a @ big_b)
    small = big_a[:4, :4]
    assert scalars._product_floats(small, small, 4) is None
    thin_a, thin_b = _ints(rng, (20**3, 20), 0, 9, True), _ints(rng, (20, 1), 0, 9, True)
    assert scalars._product_floats(thin_a, thin_b, 20) is None
    _same_product(int_matmul(thin_a, thin_b), thin_a @ thin_b)


def test_kernel_leaves_float64_products_alone():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((6, 40, 40)), rng.standard_normal((40, 40))
    for got, want in ((int_matmul(a, b), a @ b), (int_matmul(b, a), b @ a),
                      (int_tensordot(a, b, (2, 0)), np.tensordot(a, b, (2, 0))),
                      (int_tensordot(a, a, ([1, 2], [1, 2])),
                       np.tensordot(a, a, ([1, 2], [1, 2]))),
                      (int_commutator(a, b), a @ b - b @ a)):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# whole expressions lifted to float64 under their stated bound

def _edge(bound):
    """The largest t >= 1 with bound(t) < 2**53, for an increasing bound."""
    lo, hi = 1, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) < 2**53 else (lo, mid)
    return lo


def _small_ints(rng, shape, top):
    """An object array of Python ints in [-3, 3], with 3 and ``top`` among
    its entries, so that its largest magnitude is max(3, top)."""
    flat = [rng.randint(-3, 3) for _ in range(math.prod(shape))]
    flat[0], flat[-1] = top, 3
    return np.array(flat + [0], dtype=object)[:-1].reshape(shape)


def _metric_algebra(c):
    """The bracket tensor c of object ints, with the unit Gram matrix and no checks."""
    return liealg.make_algebra(c, check=False)


def _jacobi_site(t):
    n = 6
    g = _metric_algebra(_small_ints(random.Random(1), (n, n, n), t))
    return liealg, lambda: liealg._validation_report(g), 3 * n * max(3, t) ** 2


def _levi_civita_site(t):
    # the unit Gram matrix and its inverse have largest entry 1
    n = 8
    g = _metric_algebra(_small_ints(random.Random(2), (n, n, n), t))
    return liealg, lambda: levi_civita(g).scaled, 3 * n * n * max(3, t)


def _curvature_site(t):
    n = 8
    rng = random.Random(3)
    g = _metric_algebra(_small_ints(rng, (n, n, n), t))
    conn = InvariantConnection((_small_ints(rng, (n, n, n), 3), 1), LEVI_CIVITA, EXACT)
    return (liealg, lambda: liealg.scaled_curvature(g, conn),
            liealg.curvature_bound(n, 1, 1, max(3, t), 3))


def _flatness_site(t):
    # the flat ideal's basis row carries t; the rest of the bound is that of
    # the Weyl curvature
    n = 8
    rng = random.Random(4)
    g = _metric_algebra(_small_ints(rng, (n, n, n), 3))
    theta = _small_ints(rng, (n,), 1)
    row = _small_ints(rng, (1, n), t)
    data = LcpData(Subspace(n, row, EXACT), theta)
    conn = weyl_connection(g, theta)
    a, da = conn.scaled
    top_a = max(1, max(abs(x) for x in a.reshape(-1).tolist()))
    return (lcp, lambda: validate_lcp(g, data),
            n * max(3, t) * liealg.curvature_bound(n, 1, da, 3, top_a))


def _commutant_site(t):
    # the first working stack, the symmetric basis, has largest entry 1
    n = 6
    ops = [_small_ints(random.Random(5), (n, n), t), _small_ints(random.Random(6), (n, n), 2)]
    gram = np.identity(n, dtype=int).astype(object)
    return holonomy, lambda: holonomy._commutant(ops, gram, EXACT, DEFAULT_TOL), 2 * n * max(3, t)


def _cross_site(t):
    n, rng = 10, random.Random(7)
    g = _metric_algebra(_small_ints(rng, (n, n, n), 3))
    linear, quad = _small_ints(rng, (4, n), t), _small_ints(rng, (4, n), 3)
    return (holonomy, lambda: holonomy._cross_vanishes(g, linear, quad),
            2 * n ** 4 * max(3, t) * 3 * 1 * 3 * 3)


_LIFT_SITES = {"jacobi": _jacobi_site, "levi_civita": _levi_civita_site,
               "curvature": _curvature_site, "flatness": _flatness_site,
               "commutant": _commutant_site, "cross_vanishes": _cross_site}


def _plain(x):
    """Nested lists of arrays and values as plain Python values, with each
    entry's type kept beside it."""
    if isinstance(x, np.ndarray):
        return [(type(v).__name__, v) for v in x.reshape(-1).tolist()], x.shape, str(x.dtype)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return x


@pytest.mark.parametrize("site", sorted(_LIFT_SITES))
def test_each_lift_takes_float64_exactly_below_its_bound(site, monkeypatch):
    # the route each site's first lift decision takes, recorded through its
    # own module's name for the helper
    make = _LIFT_SITES[site]
    edge = _edge(lambda t: make(t)[2])
    assert 3 < edge
    for t, lifted in ((edge, True), (edge + 1, False)):
        module, compute, bound = make(t)
        assert (bound < 2**53) == lifted
        routes = []

        def spy(*args, **kwargs):
            got = scalars.exact_floats(*args, **kwargs)
            routes.append(got is not None)
            return got
        monkeypatch.setattr(module, "exact_floats", spy)
        got = compute()
        assert routes[0] == lifted, (site, t)
        # the same expression on the object arrays themselves
        monkeypatch.setattr(module, "exact_floats", lambda *args, **kwargs: None)
        assert _plain(got) == _plain(compute()), (site, t)


# ---------------------------------------------------------------------------
# n**4 tensors by slabs of rows, against the whole tensors


def _whole_validation(g):
    """Antisymmetry pairs and Jacobi triples from the whole tensors, as the
    check ran before it was cut into slabs: t[i, j, k] is [[e_i, e_j], e_k]
    and the three cyclic terms are summed at every i < j < k."""
    n, c = g.dim, g.scaled_bracket[0]
    sc = scale_of(c)
    sym = c + np.transpose(c, (1, 0, 2))
    t = np.tensordot(c, c, axes=(2, 0))
    total = t + np.transpose(t, (2, 0, 1, 3))
    total += np.transpose(t, (1, 2, 0, 3))
    anti = tuple((i, j) for i in range(n) for j in range(i, n)
                 if not is_zero_matrix(sym[i, j], g.mode, g.tol, sc))
    jac = tuple(ijk for ijk in itertools.combinations(range(n), 3)
                if not is_zero_matrix(total[ijk], g.mode, g.tol, sc * sc))
    return anti, jac


def _antisymmetric(rng, n, top):
    c = np.zeros((n, n, n), dtype=object)
    for i, j in itertools.combinations(range(n), 2):
        v = np.array([rng.randint(-top, top) for _ in range(n)] + [0], dtype=object)[:-1]
        c[i, j], c[j, i] = v, -v
    return c


def _broken_brackets():
    """Bracket tensors of object ints on which Jacobi fails: antisymmetric
    random ones, a random one that is not antisymmetric either, sl_example(2)
    with one bracket changed, and one whose entries put the check's 2**53
    lift bound out of reach."""
    rng = random.Random(11)
    n = 6
    sl2 = sl_example(2).algebra.scaled_bracket[0].copy()
    sl2[0, 1, 2] += 1
    sl2[1, 0, 2] -= 1
    big = _antisymmetric(rng, n, 2) * 2**30 + _antisymmetric(rng, n, 1)
    assert 3 * n * max(abs(x) for x in big.reshape(-1).tolist()) ** 2 >= 2**53
    return [_antisymmetric(rng, n, 1), _antisymmetric(rng, n, 2),
            _small_ints(rng, (n, n, n), 2), sl2, big]


@pytest.mark.parametrize("entries", [1, 500, None])
def test_validation_by_slabs_matches_the_whole_tensors(entries, monkeypatch):
    # one row a slab, two rows of a dim-6 tensor, and the default
    if entries is not None:
        monkeypatch.setattr(liealg, "SLAB_ENTRIES", entries)
    anti_seen = False
    for c in _broken_brackets():
        g = _metric_algebra(c)
        for h in (g, to_float_algebra(g)):
            want = _whole_validation(h)
            report = liealg._validation_report(h)
            assert (report.antisymmetry_violations, report.jacobi_violations) == want
            assert want[1]
            anti_seen = anti_seen or bool(want[0])
    assert anti_seen


def _whole_seeds(g, conn):
    """The nonzero R(e_i, e_j), i < j, from the whole curvature tensor built
    as before slabs: dc a_i a_j - dc a_j a_i - da D_[e_i, e_j]."""
    c, dc = g.scaled_bracket
    a, da = conn.scaled_operators, conn.scaled[1]
    prod = (a[:, None] * dc) @ a[None]
    curv = prod - np.transpose(prod, (1, 0, 2, 3)) - np.tensordot(c, a, axes=(2, 0)) * da
    sc = scale_of(g.bracket, g.gram)
    return [curv[i, j] for i, j in itertools.combinations(range(g.dim), 2)
            if not is_zero_matrix(curv[i, j], g.mode, g.tol, scale=sc * sc)]


def test_closure_seeds_by_one_row_slabs_match_the_whole_tensor(monkeypatch):
    # identity Gram matrices and small integer brackets keep every float
    # product exact, so the float seeds are compared bit for bit
    monkeypatch.setattr(liealg, "SLAB_ENTRIES", 1)
    rng = random.Random(12)
    cases = [_metric_algebra(_antisymmetric(rng, 6, 1)), _metric_algebra(_antisymmetric(rng, 7, 2))]
    for g in cases + [sl_example(2).algebra]:
        for h in (g, to_float_algebra(g)):
            conn = levi_civita(h)
            seeds, nabla = holonomy._closure_inputs(h, conn)
            want = _whole_seeds(h, conn)
            assert len(seeds) == len(want) > 0
            assert all(_same(a, b) for a, b in zip(seeds, want)), h
            if h.mode == EXACT:
                assert all(type(x) is int for m in seeds for x in m.reshape(-1))


def test_validation_and_seeds_need_less_than_one_n4_tensor():
    # float sl_example(3), dim 29: one whole 29**4 float64 tensor is 5.7 MB,
    # and each of the checks used to build two or more
    g = to_float_algebra(sl_example(3).algebra)
    tracemalloc.start()
    try:
        assert liealg.validate_algebra(g).passed
        seeds, _ = holonomy._closure_inputs(g, g.levi_civita)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seeds and peak < 29 ** 4 * 8


def _walk_arrays(x, seen=None):
    """Every numpy array inside x: in tuples, lists, dicts and the fields of dataclasses."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _walk_arrays(v, seen)
    elif isinstance(x, dict):
        for v in x.values():
            yield from _walk_arrays(v, seen)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            yield from _walk_arrays(getattr(x, f.name), seen)


def _is_float_input(x) -> bool:
    """An argument in float mode: a float64 array, the mode name, or an
    object (algebra, subspace, split) in that mode."""
    if isinstance(x, str):
        return x == "float"
    if getattr(x, "mode", None) == "float" or getattr(x, "promoted_to_float", False):
        return True
    return any(a.dtype == np.float64 for a in _walk_arrays(x))


# explicit one-way promotions to float64
_PROMOTIONS = {"to_float_array", "to_float_algebra", "lcp_data_to_float", "float_array"}


def test_no_exact_function_returns_a_float64_array(random_corpus, monkeypatch):
    import sys
    modules = [m for name, m in sys.modules.items()
               if name.startswith("lcplab.") and m is not None]
    public = {}
    for m in modules:
        for name, fn in vars(m).items():
            if (callable(fn) and not name.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", "").startswith("lcplab")
                    and name not in _PROMOTIONS):
                public[id(fn)] = (name, fn)
    leaks, calls = [], [0]

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            inputs = list(args) + list(kwargs.values())
            if not any(_is_float_input(x) for x in inputs) and not _is_float_input(out):
                calls[0] += 1
                leaks.extend(name for a in _walk_arrays(out) if a.dtype == np.float64)
            return out
        return recorded
    wrapped = {key: wrap(name, fn) for key, (name, fn) in public.items()}
    for m in modules:
        for name, fn in list(vars(m).items()):
            if id(fn) in wrapped:
                monkeypatch.setattr(m, name, wrapped[id(fn)])
    exact = [e for e in all_entries() if e.algebra.mode == EXACT]
    cases = [(dataclasses.replace(e.algebra), e.lcp) for e in exact]
    cases += [(dataclasses.replace(g), None) for g in random_corpus[:30]]
    for g, data in cases:
        run_analysis(g, data)
        conn = g.levi_civita
        curvature_tensor(g, conn)
        curvature_operator(g, conn, 0, g.dim - 1)
        symmetric_commutant(list(holonomy_algebra(g).basis), g.gram, EXACT, g.tol)
        if data is not None:
            weyl_connection(g, data.lee_covector)
    monkeypatch.undo()
    assert calls[0] > 1000
    assert not leaks, sorted(set(leaks))
