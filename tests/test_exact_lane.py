"""The scaled-integer lane against plain Fraction arithmetic.

Exact work runs on Python ints over a common denominator: fraction-free
elimination, integer Berkowitz and Bareiss, whole-tensor
curvature, invariance solves, the closure seeds and the commutant. Each is
checked here against a small Fraction reference that does the same job
the obvious way, or against the Fraction route the code used to take.
"""
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positive_multiple, subspaces_equal

from lcplab import holonomy, linalg, scalars
from lcplab.base import int_charpoly, int_det
from lcplab.cli import run_analysis
from lcplab.gallery import all_entries, sl_example
from lcplab.holonomy import (common_kernel, de_rham_splitting, holonomy_algebra,
                             reducibility_witness, symmetric_commutant)
from lcplab.lcp import lcp_data_to_float, lcp_decomposable, weyl_connection
from lcplab.liealg import (LEVI_CIVITA, WEYL, InvariantConnection, curvature_operator,
                           curvature_tensor, levi_civita, to_float_algebra)
from lcplab.linalg import (Subspace, _ExactEchelon, _rref, canonical_rows, charpoly_exact,
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
        store.insert(ints[i])
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
    """symmetric_commutant in the Gram frame, with its starting basis of
    symmetric S built as Fractions, one constraint matrix per operator: the
    upper triangle of G [G^-1 S, a] = S a - (G a G^-1) S, with G a G^-1 taken
    as -a^T in exact mode, and each kept S mapped back to G^-1 S by one
    Fraction product. In float
    mode the constraint of sum (i + 1) a_i comes first, as it does there,
    unless ``combination_first`` is False."""
    n = gram.shape[0]
    iu, ju = np.triu_indices(n)
    ginv = from_scaled(*scaled_inverse(gram, mode))
    basis = []
    for i, j in zip(iu, ju):
        s = zeros_array((n, n), mode)
        s[i, j] = s[j, i] = 1
        basis.append(s)
    work = np.stack([to_scaled(s)[0] for s in basis])
    scaled = [to_scaled(a)[0] for a in ops]
    if combination_first and mode != EXACT and len(ops) > 1:
        scaled.insert(0, np.tensordot(np.arange(1.0, len(ops) + 1), np.asarray(scaled), axes=1))
    for a in scaled:
        if len(work) <= 1:
            break
        hat = -a.T if mode == EXACT else gram @ a @ ginv
        k = (work @ a - hat @ work)[:, iu, ju].T
        if is_zero_matrix(k, mode, tol, scale=scale_of(a, hat) * scale_of(work)):
            continue
        _, null = rank_and_nullspace(k, mode, tol)
        if null.dim == len(work):
            continue
        coeffs = np.array([to_scaled(c)[0] for c in null.basis]).reshape(null.dim, len(work))
        work = (coeffs @ work.reshape(len(work), -1)).reshape(-1, n, n)
    return [ginv @ from_scaled(s, 1) for s in work]


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
                assert _same_up_to_scale(got, _fraction_route_restrict(ops, rows, g.mode, g.tol)), g
                assert _same_up_to_scale(restrict_operator(ops[:1], rows, g.mode, g.tol),
                                         _fraction_route_restrict(ops[:1], rows, g.mode, g.tol)), g
                checked += 1
                invariant += got is not None
    # both outcomes are exercised
    assert 0 < invariant < checked


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
        inversions.append(a is g.gram)
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
            dec = lcp_decomposable(g, data, splitting=spl)
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


def test_fraction_budget_of_one_exact_analysis(monkeypatch):
    # exact answers pass between stages as ints: Fractions are built only
    # where a value is read. One exact sl2_semidirect analysis with its
    # structure data built 8,972 of them when solves and nullspaces
    # returned Fractions, 279 while the Gram symmetry test ran on
    # Fractions, and 83 since
    entry = sl_example(2)
    g = dataclasses.replace(entry.algebra)  # a fresh algebra: nothing cached yet
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    report, code = run_analysis(g, entry.lcp)
    monkeypatch.undo()
    assert code == 0 and report["lcp_report"]["overall"]
    assert built[0] <= 300, built[0]


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
    # the float path is the one that calls _back_to_ints; count its calls
    _no_size_cutoff(monkeypatch)
    calls = [0]
    back = scalars._back_to_ints

    def counting_back(r):
        calls[0] += 1
        return back(r)
    monkeypatch.setattr(scalars, "_back_to_ints", counting_back)

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
    assert scalars._exact_floats(big_a, big_b, 40) is not None
    _same_product(int_matmul(big_a, big_b), big_a @ big_b)
    small = big_a[:4, :4]
    assert scalars._exact_floats(small, small, 4) is None
    thin_a, thin_b = _ints(rng, (20**3, 20), 0, 9, True), _ints(rng, (20, 1), 0, 9, True)
    assert scalars._exact_floats(thin_a, thin_b, 20) is None
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
