"""The modular certificate for hol = so(W) in the exact de Rham splitting.

The splitting takes the flat factor first; on the curved block W, its
orthocomplement, the closure over GF(p) bounds the holonomy dimension
from below. When the bound reaches dim so(W), W is the one curved factor
and the splitting skips the exact closure, the commutant and the
eigensplit. These tests check the bound against the exact closure, the
fallback under primes small enough to be unlucky, and the certified
answer itself, with and without a flat factor.
"""
import json

import numpy as np
import pytest

from conftest import subspaces_equal

from lcplab import holonomy, linalg
from lcplab.cli import run_analysis
from lcplab.errors import InputError
from lcplab.gallery import all_entries, fundamental_example, product_example, sl_example
from lcplab.holonomy import de_rham_splitting, holonomy_algebra
from lcplab.liealg import bracket_table, levi_civita, make_algebra, to_float_algebra
from lcplab.linalg import closure_dim_mod_p, make_subspace
from lcplab.scalars import EXACT, to_scaled

EXACT_GALLERY = [e for e in all_entries() if e.algebra.mode == EXACT]


def _bound(g):
    seeds, nabla = holonomy._closure_inputs(g, levi_civita(g))
    return holonomy._holonomy_dim_mod_p(to_scaled(g.gram)[0], seeds, nabla)


def _report(g, data=None):
    return json.dumps(run_analysis(g, data, seed=0), sort_keys=True, default=str)


def _check_bound(g):
    n = g.dim
    exact = holonomy_algebra(g).dim
    bound = _bound(g)
    assert bound <= exact
    if exact == n * (n - 1) // 2:
        assert bound == exact
    return bound


@pytest.mark.parametrize("entry", EXACT_GALLERY, ids=lambda e: e.name)
def test_bound_never_exceeds_exact_dim_on_gallery(entry):
    assert entry.algebra.dim <= 14
    _check_bound(entry.algebra)


def test_bound_never_exceeds_exact_dim_on_corpus(random_corpus):
    certified = 0
    for g in random_corpus:
        n = g.dim
        certified += _check_bound(g) == n * (n - 1) // 2
    assert certified == 133


@pytest.mark.parametrize("prime", [2, 3])
def test_unlucky_prime_falls_back_to_the_same_reports(prime, random_corpus, monkeypatch):
    cases = [(e.algebra, e.lcp) for e in all_entries()] + [(g, None) for g in random_corpus[:40]]
    want = [_report(g, d) for g, d in cases]
    monkeypatch.setattr(holonomy, "CERTIFICATE_PRIME", prime)
    if prime == 2:
        # the fallback really runs: mod 2 the 14-dim entry reaches 51 of 91
        assert _bound(sl_example(2).algebra) < 91
    assert [_report(g, d) for g, d in cases] == want


@pytest.mark.parametrize("entry", [sl_example(2), fundamental_example()],
                         ids=lambda e: e.name)
def test_certified_holonomy_is_so_g(entry):
    g = entry.algebra
    n = g.dim
    spl = de_rham_splitting(g)
    assert spl.mode == EXACT and spl.factor_dims == (n,)
    hol = spl.holonomy
    assert hol.dim == n * (n - 1) // 2
    for h in hol.basis:
        assert not np.any(g.gram @ h + h.T @ g.gram)

    def span(alg):
        return make_subspace([h.reshape(-1) for h in alg.basis], n * n, EXACT)
    assert subspaces_equal(span(hol), span(holonomy_algebra(g)))


def normal_model(flat, curved):
    """The almost-abelian algebra R T x_A R^(flat + curved) with the
    identity Gram: A rotates the first two of the flat coordinates and is
    diag(1, -1, 2, -2, ...) on the curved ones. The flat coordinates span
    the flat factor, and T with the curved coordinates is one curved factor
    with holonomy so(curved + 1)."""
    n = 1 + flat + curved
    entries = {(0, 1): {2: 1}, (0, 2): {1: -1}}
    for i in range(curved):
        x = 1 + flat + i
        entries[(0, x)] = {x: (i // 2 + 1) * (-1) ** i}
    return make_algebra(bracket_table(n, entries))


def _count_commutants(monkeypatch):
    calls = []
    real = holonomy._commutant

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(holonomy, "_commutant", counting)
    return calls


@pytest.mark.parametrize("build, dims, hol_dim", [
    (lambda: product_example().algebra, (1, 3), 3),
    (lambda: normal_model(4, 12), (4, 13), 78),
], ids=["product", "normal17"])
def test_flat_factor_then_certificate_on_the_curved_block(build, dims, hol_dim, monkeypatch):
    g = build()
    calls = _count_commutants(monkeypatch)
    spl = de_rham_splitting(g)
    assert not calls
    assert spl.mode == EXACT and not spl.promoted_to_float
    assert spl.factor_dims == dims and spl.factor_is_flat == (True, False)
    assert spl.holonomy_dim == hol_dim
    # the certified basis spans the holonomy and kills the flat factor
    n = g.dim
    flat = spl.flat_factor.basis
    for h in spl.holonomy.basis:
        assert not np.any(g.gram @ h + h.T @ g.gram) and not np.any(h @ flat.T)

    def span(alg):
        return make_subspace([h.reshape(-1) for h in alg.basis], n * n, EXACT)
    assert subspaces_equal(span(spl.holonomy), span(holonomy_algebra(g)))
    # the float twin gives the same report
    reports = [run_analysis(h, seed=0) for h in (g, to_float_algebra(g))]
    for report, _ in reports:
        report.pop("mode")
        report.pop("tool_versions")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("prime", [2, 3])
def test_unlucky_prime_on_the_curved_block_gives_the_same_split(prime, monkeypatch):
    # both primes fall short of dim so(13) = 78, so the commutant runs
    g = normal_model(4, 12)
    calls = _count_commutants(monkeypatch)
    monkeypatch.setattr(holonomy, "CERTIFICATE_PRIME", prime)
    spl = de_rham_splitting(g)
    assert len(calls) == 1
    assert spl.factor_dims == (4, 13) and spl.factor_is_flat == (True, False)
    assert spl.holonomy_dim == 78 and spl.mode == EXACT


def _images_mod(p):
    # a block of rows v -> a v mod p for each v, under each a of a stack in turn
    return lambda ops, rows: np.einsum("kij,bj->bki", ops, rows).reshape(-1, rows.shape[1]) % p


# no operator, and the one that swaps the two coordinates
NONE = np.zeros((0, 2, 2), dtype=np.int64)
SWAP = np.array([[[0, 1], [1, 0]]], dtype=np.int64)


def test_modular_closure_dim_is_rank_mod_p():
    # rows (1, 1) and (1, 3) are independent over Q and mod 3, not mod 2
    def seed(p):
        return np.array([[1, 1], [1, 1], [1, 3]], dtype=np.int64) % p
    assert closure_dim_mod_p(seed(2), NONE, _images_mod(2), 2) == 1
    assert closure_dim_mod_p(seed(3), NONE, _images_mod(3), 3) == 2
    # the step adds the swapped vector: (1, 2) -> (2, 1) spans GF(5)^2 with it
    assert closure_dim_mod_p(np.array([[1, 2]], dtype=np.int64), SWAP, _images_mod(5), 5) == 2
    assert closure_dim_mod_p(np.array([[1, 1]], dtype=np.int64), SWAP, _images_mod(5), 5) == 1


def _rank_mod_p(rows, p):
    # plain Gaussian elimination on Python ints, the reference
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _mixed_rows(p, count, rank, width, rng):
    # count rows mod p that span a space of dimension at most rank
    basis = rng.integers(0, p, size=(rank, width), dtype=np.int64).astype(object)
    mix = rng.integers(0, p, size=(count, rank), dtype=np.int64).astype(object)
    return np.array((mix @ basis) % p, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, holonomy.CERTIFICATE_PRIME])
def test_modular_rank_matches_reference(p):
    # blocks wider and taller than one panel of MODP_PANEL rows, added to a
    # basis in two calls, so that the second is reduced against stored rows
    rng = np.random.default_rng(p)
    for count, rank, width in [(14, 6, 12), (150, 70, 90), (200, 90, 90)]:
        vecs = _mixed_rows(p, count, rank, width, rng)
        want = _rank_mod_p(vecs.tolist(), p)
        ops = np.zeros((0, width, width), dtype=np.int64)
        assert closure_dim_mod_p(vecs, ops, _images_mod(p), p) == want
        basis = linalg._ModpBasis(width, p)
        new = basis.insert(vecs[:count // 3])
        new2 = basis.insert(vecs[count // 3:])
        assert basis.dim == len(new) + len(new2) == want
        # the stored rows, 1 at their own pivot and 0 at the others', span
        # the new rows, and every input row reduces to zero against them
        rows = np.zeros((want, width), dtype=np.int64)
        rows[:, basis.pivots] = np.identity(want, dtype=np.int64)
        rows[:, basis.free] = basis.cols
        assert basis.cols.min(initial=0) >= 0 and basis.cols.max(initial=0) < p
        for v in (vecs, new, new2):
            left = (v - v[:, basis.pivots].astype(object) @ rows.astype(object)) % p
            assert not left.any()


def test_modular_arithmetic_refuses_primes_past_its_bound():
    # 2**20 and up, such as the smallest prime above it or 2**31 - 1, could
    # overflow a float64 sum or the int64 panel silently; they are refused
    block = np.ones((1, 2), dtype=np.int64)
    for p in (1048583, 2**31 - 1):
        with pytest.raises(InputError, match="below 2\\*\\*20"):
            closure_dim_mod_p(block, NONE, _images_mod(p), p)
        with pytest.raises(InputError):
            linalg.matmul_mod(block, block.T, p)


def test_float64_products_are_exact_up_to_the_bound():
    # the certificate prime is the largest below 2**20, and one float64 sum
    # takes 2**13 products of residues: just below 2**53, and one more is past it
    p = holonomy.CERTIFICATE_PRIME
    assert all(p % d for d in range(2, 1025))
    assert all(any(q % d == 0 for d in range(2, 1025)) for q in range(p + 1, 2**20))
    terms = linalg.modp_terms(p)
    assert terms == 2**13
    assert (p - 1) ** 2 * terms < 2**53 <= (p - 1) ** 2 * (terms + 1)
    # odd products: a float64 sum past 2**53 cannot hold their odd total
    for count in (terms, terms + 1, 3 * terms + 5):
        a = np.full((1, count), p - 2, dtype=np.int64)
        exact = count * (p - 2) ** 2
        if count > terms:
            assert int((a.astype(np.float64) @ a.T.astype(np.float64))[0, 0]) != exact
        assert linalg.matmul_mod(a, a.T, p).tolist() == [[exact % p]]
        # and subtracted from residues, as the basis reduces a block
        c = np.array([[5]], dtype=np.int64)
        assert linalg.matmul_mod(-a, a.T, p, c).tolist() == [[(5 - exact) % p]]
