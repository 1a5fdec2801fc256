"""Stacked structure tests against the per-pair loops they replaced.

The library decides each structure condition with one invariance test on
a stack of operators or one zero test on a whole tensor. The references
below are the loops it used to run instead: one row-span solve or one
zero test per basis pair. Slow and obvious, they must give the same
verdicts on every gallery entry and on 30 corpus algebras, exact and
float. The same holds for the constructions that now run as contractions
on the scaled form: the change of basis, the Weyl connection and the
gallery's semidirect sums and sl(d), whose references build them the way
they used to be built, with Fraction loops.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import coords_in_rowbasis, scaled_value

from lcplab.errors import InputError
from lcplab.gallery import _sl_with_line, all_entries, semidirect_sum, sl_example
from lcplab.holonomy import _cross_vanishes, de_rham_splitting
from lcplab.lcp import (LcpData, is_closed_covector, lcp_data_to_float, validate_lcp,
                        weyl_connection)
from lcplab.liealg import (bracket_table, bracket_vec, curvature_tensor, inner,
                           is_ideal, is_subalgebra, is_unimodular, levi_civita, make_algebra,
                           to_float_algebra, transform_algebra)
from lcplab.linalg import (Subspace, canonical_rows, exact_det, is_zero_matrix, residual_band,
                           scale_of, scaled_inverse)
from lcplab.scalars import (DEFAULT_TOL, EXACT, FLOAT, array_for_mode, exact_array, eye_array,
                            from_scaled, to_float_array, to_scaled, zeros_array)

# ---------------------------------------------------------------------------
# references: one decision per basis pair


def _in_span(g, vec, rows):
    return coords_in_rowbasis(vec, rows, g.mode, g.tol) is not None


def _zero_scalar(g, x, scale):
    if g.mode == EXACT:
        return x == 0
    return abs(float(x)) <= residual_band(g.tol) * max(1.0, scale)


def ref_is_subalgebra(g, s):
    rows = s.basis
    return all(_in_span(g, bracket_vec(g, rows[i], rows[j]), rows)
               for i in range(s.dim) for j in range(i + 1, s.dim))


def ref_is_ideal(g, s):
    eye = eye_array(g.dim, g.mode)
    return all(_in_span(g, bracket_vec(g, eye[i], row), s.basis)
               for i in range(g.dim) for row in s.basis)


def ref_is_unimodular(g):
    sc = scale_of(g.bracket)
    return all(_zero_scalar(g, sum(g.bracket[i, j, j] for j in range(g.dim)), sc)
               for i in range(g.dim))


def ref_is_closed_covector(g, theta):
    sc = scale_of(g.bracket, theta)
    return all(_zero_scalar(g, g.bracket[i, j, :] @ theta, sc * sc)
               for i in range(g.dim) for j in range(i + 1, g.dim))


def ref_cross_vanishes(g, linear_rows, quad_rows):
    sc = scale_of(g.bracket, g.gram)
    m = quad_rows.shape[0]
    return all(_zero_scalar(g, inner(g, bracket_vec(g, a, quad_rows[i]), quad_rows[j])
                            + inner(g, bracket_vec(g, a, quad_rows[j]), quad_rows[i]), sc * sc)
               for a in linear_rows for i in range(m) for j in range(i, m))


def ref_lcp_flags(g, data):
    """(u_is_ideal, u_weyl_flat, weyl_nonflat), one pair of e_i, e_j at a time."""
    u = data.flat_ideal
    conn = weyl_connection(g, data.lee_covector)
    sc_r = scale_of(conn.coeffs) ** 2
    curv = curvature_tensor(g, conn)
    flat_on_u, nonflat = True, False
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            r = curv[i, j]
            if not is_zero_matrix(r, g.mode, g.tol, scale=sc_r):
                nonflat = True
            if not is_zero_matrix(u.basis @ r.T, g.mode, g.tol,
                                  scale=sc_r * scale_of(u.basis)):
                flat_on_u = False
    return ref_is_ideal(g, u), flat_on_u, nonflat


def ref_transform_algebra(g, q):
    """The change of basis as one bracket per basis pair."""
    qinv = scaled_value(scaled_inverse(q, g.mode))
    n = g.dim
    c = zeros_array((n, n, n), g.mode)
    for i in range(n):
        for j in range(i + 1, n):
            v = bracket_vec(g, q[i], q[j]) @ qinv
            c[i, j, :] = v
            c[j, i, :] = -v
    return make_algebra(c, q @ g.gram @ q.T, g.mode, g.basis_names, g.tol, check=False)


def ref_levi_civita(g):
    """Levi-Civita coefficients as Fractions, from a Fraction inverse of the gram."""
    c, dc = g.scaled_bracket
    gram, ginv, d = to_scaled(g.gram, scaled_value(scaled_inverse(g.gram, g.mode)))
    b = np.tensordot(c, gram, axes=(2, 0))
    rhs = b + np.transpose(b, (1, 2, 0)) - np.transpose(b, (2, 0, 1))
    return from_scaled(np.tensordot(rhs, ginv, axes=(2, 0)), 2 * dc * d * d)


def ref_weyl_coeffs(g, theta):
    """Weyl coefficients from the Fraction Levi-Civita coefficients, each
    term scaled to one denominator."""
    diag = np.arange(g.dim)
    sharp = scaled_value(scaled_inverse(g.gram, g.mode)) @ theta
    base, theta, gram, sharp, d = to_scaled(ref_levi_civita(g), theta, g.gram, sharp)
    coeffs = base * d
    coeffs[:, diag, diag] += theta[:, None] * d
    coeffs[diag, :, diag] += theta[None, :] * d
    coeffs -= gram[:, :, None] * sharp
    return from_scaled(coeffs, d * d)


# ---------------------------------------------------------------------------
# inputs: subspaces, pairs and structure data on each algebra


def _span(rows, g):
    return Subspace(g.dim, rows, g.mode)


def _exact_cases(g):
    """Subspaces and complementary pairs of an exact algebra."""
    n = g.dim
    eye = eye_array(n, EXACT)
    # the derived algebra is an ideal; leading coordinate spans may be anything
    derived = canonical_rows(g.bracket.reshape(-1, n), EXACT, g.tol)
    spaces = [_span(eye[:k], g) for k in range(1, n)] + [_span(derived, g)]
    pairs = [(eye[:k], eye[k:]) for k in range(1, n)]
    spl = de_rham_splitting(g)
    if spl.mode == EXACT:
        spaces += list(spl.factors)
        pairs += [(f.basis, np.concatenate([h.basis for h in spl.factors if h is not f]))
                  for f in spl.factors if len(spl.factors) > 1]
    theta = np.array([(-1) ** k * (k % 3) for k in range(n)], dtype=object) * eye[0, 0]
    lcps = [LcpData(_span(derived, g), theta), LcpData(_span(eye[-1:], g), eye[0])]
    return [s for s in spaces if s.dim], pairs, [d for d in lcps if d.flat_ideal.dim]


def _sheared(g, data):
    """The algebra and its structure data in the basis e_i + e_(i+1)."""
    q = eye_array(g.dim, EXACT)
    q[:-1, 1:] += eye_array(g.dim - 1, EXACT)
    qinv = scaled_value(scaled_inverse(q, EXACT))
    comp = data.complement
    return transform_algebra(g, q), LcpData(
        _span(data.flat_ideal.basis @ qinv, g), q @ data.lee_covector,
        None if comp is None else _span(comp.basis @ qinv, g))


def _float_cases(spaces, pairs, lcps):
    return ([Subspace(s.ambient_dim, to_float_array(s.basis), FLOAT) for s in spaces],
            [(to_float_array(a), to_float_array(b)) for a, b in pairs],
            [lcp_data_to_float(d) for d in lcps])


@pytest.fixture(scope="module")
def cases(random_corpus):
    out = []
    for e in all_entries():
        g = e.algebra
        if g.mode == EXACT:
            spaces, pairs, lcps = _exact_cases(g)
            if e.lcp is not None:
                lcps.append(e.lcp)
            out.append((g, spaces, pairs, lcps))
            out.append((to_float_algebra(g), *_float_cases(spaces, pairs, lcps)))
            if e.lcp is not None:
                # the same structure in a basis that is not orthonormal
                h, data = _sheared(g, e.lcp)
                out.append((h, [], [], [data]))
                out.append((to_float_algebra(h), [], [], [lcp_data_to_float(data)]))
        else:
            spl = de_rham_splitting(g)
            pairs = [(spl.factors[0].basis, np.concatenate([f.basis for f in spl.factors[1:]]))
                     ] if len(spl.factors) > 1 else []
            out.append((g, list(spl.factors), pairs, [e.lcp] if e.lcp else []))
    for g in random_corpus[:30]:
        spaces, pairs, lcps = _exact_cases(g)
        out.append((g, spaces, pairs, lcps))
        out.append((to_float_algebra(g), *_float_cases(spaces, pairs, lcps)))
    return out


def _compare(cases, new, ref, inputs):
    """Every verdict of ``new`` equals the reference; both verdicts occur."""
    seen = set()
    for g, *rest in cases:
        for x in inputs(g, *rest):
            verdict = new(g, *x)
            assert verdict == ref(g, *x), (g, x)
            seen.add(verdict)
    return seen


def test_is_subalgebra_matches_the_pair_loop(cases):
    seen = _compare(cases, is_subalgebra, ref_is_subalgebra,
                    lambda g, spaces, pairs, lcps: [(s,) for s in spaces])
    assert seen == {True, False}


def test_is_ideal_matches_the_pair_loop(cases):
    seen = _compare(cases, is_ideal, ref_is_ideal,
                    lambda g, spaces, pairs, lcps: [(s,) for s in spaces])
    assert seen == {True, False}


def test_is_unimodular_matches_the_trace_loop(cases):
    seen = _compare(cases, is_unimodular, ref_is_unimodular, lambda g, *_: [()])
    assert seen == {True, False}


def test_is_closed_covector_matches_the_pair_loop(cases):
    def covectors(g, spaces, pairs, lcps):
        # each basis covector, and the Lee forms of the structure data
        return [(row,) for row in eye_array(g.dim, g.mode)] + [(d.lee_covector,) for d in lcps]
    seen = _compare(cases, is_closed_covector, ref_is_closed_covector, covectors)
    assert seen == {True, False}


def test_cross_vanishes_matches_the_polarized_loop(cases):
    def both_ways(g, spaces, pairs, lcps):
        return [p for a, b in pairs for p in ((a, b), (b, a))]
    seen = _compare(cases, _cross_vanishes, ref_cross_vanishes, both_ways)
    assert seen == {True, False}


def test_validate_lcp_flags_match_the_pair_loop(cases):
    def flags(g, data):
        rep = validate_lcp(g, data)
        return rep.u_is_ideal, rep.u_weyl_flat, rep.weyl_nonflat
    seen = _compare(cases, flags, ref_lcp_flags,
                    lambda g, spaces, pairs, lcps: [(d,) for d in lcps])
    for k in range(3):
        assert {s[k] for s in seen} == {True, False}


# ---------------------------------------------------------------------------
# constructions against the way they used to be built


def _invertible(rng, n):
    while True:
        q = exact_array([[Fraction(int(rng.integers(-2, 3)), int(rng.choice((1, 2))))
                          for _ in range(n)] for _ in range(n)])
        if exact_det(q) != 0:
            return q


def _equal_in_mode(g, got, want):
    """Equal Fractions in exact mode, within the residual band in float mode."""
    if g.mode == EXACT:
        return np.array_equal(got, want) and all(type(x) is Fraction for x in got.reshape(-1))
    return float(np.abs(got - want).max()) <= residual_band(g.tol) * scale_of(want)


@pytest.fixture(scope="module")
def construction_cases(random_corpus):
    """(algebra, Lee covectors in its mode): every gallery entry with
    structure data and 30 corpus algebras, each with a seeded covector as
    well; exact algebras also come as float twins."""
    rng = np.random.default_rng(20)
    out = []
    entries = [(e.algebra, [e.lcp.lee_covector]) for e in all_entries() if e.lcp is not None]
    for g, thetas in entries + [(g, []) for g in random_corpus[:30]]:
        seeded = [Fraction(int(rng.integers(-3, 4)), int(rng.choice((1, 2, 3))))
                  for _ in range(g.dim)]
        thetas = thetas + [array_for_mode(seeded, g.mode)]
        out.append((g, thetas))
        if g.mode == EXACT:
            out.append((to_float_algebra(g), [to_float_array(t) for t in thetas]))
    return out


def test_transform_algebra_matches_the_pair_loop(construction_cases):
    rng = np.random.default_rng(21)
    for g, _ in construction_cases:
        q = _invertible(rng, g.dim)
        if g.mode == FLOAT:
            q = to_float_array(q)
        got, want = transform_algebra(g, q), ref_transform_algebra(g, q)
        assert _equal_in_mode(g, got.bracket, want.bracket), g
        assert np.array_equal(got.gram, want.gram)
        # float output stays exactly antisymmetric
        assert (got.bracket == -np.transpose(got.bracket, (1, 0, 2))).all()


def test_weyl_connection_matches_the_fraction_formula(construction_cases):
    for g, thetas in construction_cases:
        lc = levi_civita(g)
        assert _equal_in_mode(g, lc.coeffs, ref_levi_civita(g)), g
        for theta in thetas:
            assert _equal_in_mode(g, weyl_connection(g, theta).coeffs,
                                  ref_weyl_coeffs(g, theta)), g
        # a zero Lee form gives the Levi-Civita connection back
        zero = weyl_connection(g, zeros_array((g.dim,), g.mode))
        assert np.array_equal(zero.coeffs, lc.coeffs)
        assert np.array_equal(zero.scaled[0], lc.scaled[0]) and zero.scaled[1] == lc.scaled[1]


# ---------------------------------------------------------------------------
# gallery builders against the Fraction loops they replaced


def ref_semidirect_sum(h, rep, v_dim):
    """The semidirect sum with one Fraction homomorphism test per pair and
    the bracket filled entry by entry."""
    mats = [array_for_mode(r, h.mode) for r in rep]
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            expected = zeros_array((v_dim, v_dim), h.mode)
            for k in range(h.dim):
                expected = expected + h.bracket[i, j, k] * mats[k]
            defect = mats[i] @ mats[j] - mats[j] @ mats[i] - expected
            bad = max(abs(float(x)) for x in defect.flat)
            if bad > (0.0 if h.mode == EXACT else 1e-12 * max(
                    1.0, max(abs(float(x)) for m in mats for x in m.flat))):
                ni, nj = h.basis_names[i], h.basis_names[j]
                raise InputError(
                    f"action is not a homomorphism: [rep({ni}), rep({nj})] "
                    f"differs from rep([{ni}, {nj}])")
    n = v_dim + h.dim
    c = zeros_array((n, n, n), h.mode)
    for k in range(h.dim):
        for j in range(v_dim):
            for m in range(v_dim):
                c[v_dim + k, j, m] = mats[k][m, j]
                c[j, v_dim + k, m] = -mats[k][m, j]
    for i in range(h.dim):
        for j in range(h.dim):
            for k in range(h.dim):
                c[v_dim + i, v_dim + j, v_dim + k] = h.bracket[i, j, k]
    gram = zeros_array((n, n), h.mode)
    gram[:v_dim, :v_dim] = eye_array(v_dim, h.mode)
    gram[v_dim:, v_dim:] = h.gram
    names = tuple(f"v{i}" for i in range(v_dim)) + h.basis_names
    return make_algebra(c, gram, h.mode, names, h.tol, check=False)


def ref_sl_basis(d):
    """Traceless Fraction matrices: off-diagonal units, then diagonal differences."""
    mats, names = [], []
    for i in range(d):
        for j in range(d):
            if i != j:
                m = zeros_array((d, d), EXACT)
                m[i, j] = Fraction(1)
                mats.append(m)
                names.append(f"E{i + 1}{j + 1}")
    for k in range(d - 1):
        m = zeros_array((d, d), EXACT)
        m[k, k], m[k + 1, k + 1] = Fraction(1), Fraction(-1)
        mats.append(m)
        names.append("H" if d == 2 else f"H{k + 1}")
    return mats, tuple(names)


def ref_traceless_coords(m, d):
    """Off-diagonal entries, then partial sums of the diagonal."""
    coords = [m[i, j] for i in range(d) for j in range(d) if i != j]
    partial = Fraction(0)
    for k in range(d - 1):
        partial += m[k, k]
        coords.append(partial)
    return coords


def ref_sl_with_line(d):
    """sl(d) plus a central line b, one commutator and one trace per pair."""
    mats, names = ref_sl_basis(d)
    s = len(mats)
    c = zeros_array((s + 1, s + 1, s + 1), EXACT)
    gram = zeros_array((s + 1, s + 1), EXACT)
    for i in range(s):
        for j in range(s):
            c[i, j, :s] = ref_traceless_coords(mats[i] @ mats[j] - mats[j] @ mats[i], d)
            gram[i, j] = sum(mats[i][a, b] * mats[j][a, b] for a in range(d) for b in range(d))
    gram[s, s] = Fraction(1)
    return make_algebra(c, gram, EXACT, names + ("b",), DEFAULT_TOL, check=False)


def ref_sl_example(d):
    """The sl(d) semidirect sum with its action built one Fraction kron at a time."""
    n = d * d
    h = ref_sl_with_line(d)
    i2 = eye_array(2, EXACT)
    rep = []
    for m in ref_sl_basis(d)[0]:
        block = zeros_array((n + 1, n + 1), EXACT)
        block[:n, :n] = np.kron(eye_array(d, EXACT), m)
        rep.append(np.kron(block, i2))
    rep.append(np.kron(eye_array(n + 1, EXACT), exact_array([[1, 0], [0, -1]])))
    g = ref_semidirect_sum(h, rep, 2 * (n + 1))
    names = tuple(f"w{i}{j}" for i in range(n + 1) for j in range(2)) + h.basis_names
    return make_algebra(g.bracket, g.gram, EXACT, names, g.tol, check=False)


def _same_algebra(got, want):
    assert got.basis_names == want.basis_names
    for a, b in ((got.bracket, want.bracket), (got.gram, want.gram)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        if got.mode == EXACT:
            assert all(type(x) is Fraction for x in a.reshape(-1))


@pytest.mark.parametrize("d", [2, 3])
def test_sl_builders_match_the_fraction_loops(d):
    _same_algebra(_sl_with_line(d), ref_sl_with_line(d))
    _same_algebra(sl_example(d).algebra, ref_sl_example(d))


def _semidirect_inputs():
    """The semidirect sum test inputs, exact and float, homomorphisms or not."""
    affine = make_algebra(bracket_table(2, {(0, 1): {1: 1}}, EXACT))
    sl2 = make_algebra(bracket_table(3, {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}},
                                     EXACT), basis_names=("E12", "E21", "H"))
    i2 = np.eye(2, dtype=int)
    units = [np.array(m) for m in ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])]
    out = {"affine": (affine, [np.diag([1, 2]), np.zeros((2, 2), dtype=int)], 2),
           "affine_not_hom": (affine, [np.zeros((2, 2), dtype=int), -i2], 2),
           "affine_half": (affine, [np.diag([Fraction(1, 2), 3]), np.zeros((2, 2), dtype=int)], 2),
           "sl2": (sl2, [np.kron(i2, m) for m in units], 4),
           "sl2_untwisted": (sl2, [np.kron(i2, m.T) for m in units], 4)}
    return ([pytest.param(*x, id=name) for name, x in out.items()]
            + [pytest.param(to_float_algebra(h), [np.array(r, dtype=float) for r in rep], v,
                            id=f"{name}_float") for name, (h, rep, v) in out.items()])


@pytest.mark.parametrize("h, rep, v_dim", _semidirect_inputs())
def test_semidirect_sum_matches_the_fraction_loops(h, rep, v_dim):
    try:
        want = ref_semidirect_sum(h, rep, v_dim)
    except InputError as err:
        with pytest.raises(InputError) as got:
            semidirect_sum(h, rep, v_dim)
        assert str(got.value) == str(err)
        return
    _same_algebra(semidirect_sum(h, rep, v_dim), want)
