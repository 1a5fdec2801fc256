"""Acceptance gate: ten criteria, one test and one printed line each.

Tolerances are pinned here and may not be loosened: float rank tolerance
1e-9, conjugacy reconstruction defect 1e-8, float connection defects
within ten times the rank tolerance. The fourteen-dimensional example
has a sixty-second budget, asserted; everything else is desk scale.
Run with -s to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lcplab.cli import main
from lcplab.gallery import (QUARTIC, all_entries, fundamental_example,
                            product_example, sl_example,
                            strongly_irreducible_example)
from lcplab.holonomy import (check_reducing_pair, de_rham_splitting,
                             holonomy_algebra, reducibility_witness,
                             symmetric_commutant, verify_factor_subalgebras)
from lcplab.lattice import (char_poly, discreteness_probe,
                            is_irreducible_over_Z, solve_conjugacy,
                            unit_root_profile, verify_conjugacy)
from lcplab.lcp import (lcp_decomposable, lee_form_from_splitting,
                        make_lcp_data, validate_lcp, weyl_connection)
from lcplab.liealg import (ad_matrix, is_unimodular, levi_civita,
                           make_algebra, metric_defect, to_float_algebra,
                           torsion_defect, validate_algebra)
from lcplab.scalars import EXACT, FLOAT, exact_array

FLOAT_RANK_TOL = 1e-9
CONJUGACY_DEFECT_TOL = 1e-8
LARGE_EXAMPLE_BUDGET = 60.0


def _report(number: int, started: float, text: str) -> None:
    print(f"criterion {number:2d}: PASS ({time.time() - started:5.1f}s) {text}")


@pytest.fixture(scope="module")
def corpus_with_splittings(random_corpus):
    return [(g, de_rham_splitting(g)) for g in random_corpus]


def test_criterion_01_fundamental_example():
    t = time.time()
    e = fundamental_example()
    g = e.algebra
    assert g.mode == EXACT
    assert validate_algebra(g).passed
    assert is_unimodular(g)
    rep = validate_lcp(g, e.lcp)
    assert rep.overall
    assert holonomy_algebra(g).dim == 3
    spl = de_rham_splitting(g)
    dec = lcp_decomposable(g, e.lcp, splitting=spl, lcp_report=rep)
    assert dec.decomposable is False
    # trace identity recovers the Lee form with zero tolerance
    theta = lee_form_from_splitting(g, e.lcp.flat_ideal, e.lcp.complement)
    assert np.array_equal(theta, e.lcp.lee_covector)
    assert np.array_equal(theta, exact_array([0, 0, 1]))
    _report(1, t, "dim 3: checks pass, holonomy dim 3, indecomposable, "
                  "exact Lee form")


def test_criterion_02_product_example():
    t = time.time()
    e = product_example()
    g = e.algebra
    assert g.mode == EXACT
    spl = de_rham_splitting(g)
    assert sorted(spl.factor_dims) == [1, 3]
    assert not spl.promoted_to_float
    rep = validate_lcp(g, e.lcp)
    assert rep.overall
    dec = lcp_decomposable(g, e.lcp, splitting=spl, lcp_report=rep)
    assert dec.decomposable is True
    assert dec.principal_factor.dim == 3
    assert dec.q == 1
    assert dec.dim_bound_satisfied is True
    assert dec.principal_factor.dim == dec.q + 2  # bound met with equality
    _report(2, t, "dim 4: factors {3, 1}, principal dim 3 = q + 2 exactly")


def test_criterion_03_strongly_irreducible_example():
    t = time.time()
    e = strongly_irreducible_example()
    g = e.algebra
    assert g.mode == FLOAT
    assert g.tol.rank_tol == FLOAT_RANK_TOL
    spl = de_rham_splitting(g)
    assert sorted(spl.factor_dims) == [2, 3]
    assert spl.flat_factor is not None and spl.flat_factor.dim == 2
    rep = validate_lcp(g, e.lcp)
    assert rep.overall
    dec = lcp_decomposable(g, e.lcp, splitting=spl, lcp_report=rep)
    assert dec.decomposable is True
    assert dec.principal_factor.dim == 3
    assert dec.principal_factor.dim == dec.q + 2
    assert is_irreducible_over_Z(QUARTIC)
    prof = unit_root_profile(QUARTIC)
    assert prof.on_circle == 2
    assert prof.real_off_circle == 2
    assert prof.complex_off_circle == 0
    degree_of_unit = prof.degree
    assert degree_of_unit == 4
    assert degree_of_unit > 2  # out of reach for the three-dimensional models
    _report(3, t, "dim 5: factors {3, 2}, decomposable, quartic unit of "
                  "degree 4 > 2")


def test_criterion_04_fourteen_dimensional_example():
    t = time.time()
    e = sl_example(2)
    g = e.algebra
    assert g.dim == 14 and g.mode == EXACT
    assert is_unimodular(g)
    rep = validate_lcp(g, e.lcp)
    assert rep.overall
    # the flat ideal is the fixed line of the linear part, the Lee form the
    # covector dual to the extra derivation direction
    assert e.lcp.flat_ideal.dim == 1
    row = e.lcp.flat_ideal.basis[0]
    assert [k for k in range(14) if row[k] != 0] == [8]
    assert g.basis_names[8] == "w40"
    theta = e.lcp.lee_covector
    assert [k for k in range(14) if theta[k] != 0] == [13]
    assert g.basis_names[13] == "b"
    ad_b = ad_matrix(g, 13)
    assert all(ad_b[i, j] == 0 for i in range(14) for j in range(14) if i != j)
    diag = [ad_b[i, i] for i in range(14)]
    sizes = sorted(diag.count(v) for v in set(diag))
    assert sizes == [4, 5, 5]
    spl = de_rham_splitting(g)
    dec = lcp_decomposable(g, e.lcp, splitting=spl, lcp_report=rep)
    assert dec.decomposable is False
    elapsed = time.time() - t
    assert elapsed <= LARGE_EXAMPLE_BUDGET
    _report(4, t, "dim 14: unimodular, checks pass, weight dims {4, 5, 5}, "
                  "indecomposable")


def test_criterion_05_witness_commutant_equivalence(corpus_with_splittings):
    t = time.time()
    failures = []
    witnesses = 0
    for idx, (g, spl) in enumerate(corpus_with_splittings):
        gg = g if not spl.promoted_to_float else to_float_algebra(g)
        pair = reducibility_witness(g, splitting=spl)
        comm = symmetric_commutant(list(spl.holonomy.basis), gg.gram,
                                   gg.mode, gg.tol)
        if (pair is not None) != (len(comm) >= 2):
            failures.append((idx, "witness does not match commutant size"))
        if pair is not None:
            witnesses += 1
            if not check_reducing_pair(gg, pair.s1, pair.s2).passed:
                failures.append((idx, "returned pair fails the conditions"))
    assert failures == []
    _report(5, t, f"200 random algebras: witness iff commutant dim >= 2, "
                  f"{witnesses} witnesses, zero failures")


def test_criterion_06_factors_are_subalgebras(corpus_with_splittings):
    t = time.time()
    bad = [idx for idx, (g, spl) in enumerate(corpus_with_splittings)
           if not all(verify_factor_subalgebras(g, spl, strict=False))]
    assert bad == []
    _report(6, t, "200 random algebras: every metric factor closed under "
                  "the bracket")


def test_criterion_07_connection_invariants(random_corpus):
    t = time.time()
    rng = np.random.default_rng(7)
    for g in random_corpus:
        conn = levi_civita(g)
        assert torsion_defect(g, conn) == 0
        assert metric_defect(g, conn) == 0
        theta = exact_array([Fraction(int(rng.integers(-2, 3)), 2)
                             for _ in range(g.dim)])
        d = weyl_connection(g, theta)
        for i in range(g.dim):
            a = d.operator(i)
            lhs = g.gram @ a + a.T @ g.gram
            rhs = (2 * theta[i]) * g.gram
            assert np.array_equal(lhs, rhs)
    for g in random_corpus[:20]:
        gf = to_float_algebra(g)
        conn = levi_civita(gf)
        band = 10.0 * gf.tol.rank_tol
        scale = max(1.0, float(np.max(np.abs(gf.bracket))),
                    float(np.max(np.abs(gf.gram))))
        assert torsion_defect(gf, conn) <= band * scale
        assert metric_defect(gf, conn) <= band * scale
    _report(7, t, "200 exact + 20 float algebras: torsion, metric, and "
                  "conformal compatibility hold")


def _same_span(a, b, mode, tol):
    from lcplab.linalg import matrix_rank
    if a.dim != b.dim:
        return False
    stacked = np.concatenate([a.basis, b.basis], axis=0)
    return matrix_rank(stacked, mode, tol) == a.dim


def test_criterion_08_gram_scale_invariance():
    t = time.time()
    for e in all_entries():
        g = e.algebra
        g7 = make_algebra(g.bracket, gram=g.gram * 7, mode=g.mode,
                          basis_names=g.basis_names, tol=g.tol, check=False)
        data7 = make_lcp_data(g7, e.lcp.flat_ideal.basis, e.lcp.lee_covector,
                              None if e.lcp.complement is None
                              else e.lcp.complement.basis)
        assert is_unimodular(g7) == is_unimodular(g)
        if g.dim <= 5:
            spl = de_rham_splitting(g)
            spl7 = de_rham_splitting(g7)
            assert spl7.factor_dims == spl.factor_dims
            assert spl7.factor_is_flat == spl.factor_is_flat
            for f, f7 in zip(spl.factors, spl7.factors):
                assert _same_span(f, f7, spl.mode, g.tol), e.name
            rep = validate_lcp(g, e.lcp)
            rep7 = validate_lcp(g7, data7)
            assert rep7.as_dict() == rep.as_dict()
            dec = lcp_decomposable(g, e.lcp, splitting=spl, lcp_report=rep)
            dec7 = lcp_decomposable(g7, data7, splitting=spl7,
                                    lcp_report=rep7)
            assert dec7.decomposable == dec.decomposable
            assert dec7.touched_factors == dec.touched_factors
            assert dec7.principal_factor_index == dec.principal_factor_index
            assert dec7.q == dec.q
            assert dec7.dim_bound_satisfied == dec.dim_bound_satisfied
        else:
            # scaling cancels out of the connection, exactly: equal
            # connections and brackets give equal curvature and holonomy,
            # and orthocomplements agree for G and 7G, so the splitting
            # cannot differ; the cheap verdicts are checked directly
            c = levi_civita(g)
            c7 = levi_civita(g7)
            assert np.array_equal(c.coeffs, c7.coeffs)
            rep7 = validate_lcp(g7, data7)
            assert rep7.overall
    _report(8, t, "every gallery entry: G -> 7G changes no verdict, factor, "
                  "or principal index")


def test_criterion_09_lattice_module():
    t = time.time()
    golden = [[1, 1], [1, 2]]
    assert char_poly(golden) == (1, -3, 1)
    sol = solve_conjugacy(golden)
    assert sol is not None
    assert verify_conjugacy(golden, sol) <= CONJUGACY_DEFECT_TOL
    acc = discreteness_probe([1.0, math.sqrt(2.0)])
    assert acc.discrete is False
    disc = discreteness_probe([1.0])
    assert disc.discrete is True and disc.rank == 1
    _report(9, t, "char poly exact, conjugacy defect <= 1e-8, probe "
                  "separates {1, sqrt 2} from {1}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t = time.time()
    assert main(["examples", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    assert len(files) == 4
    for path in files:
        runs = []
        for _ in range(2):
            assert main(["analyze", str(path), "--json", "--seed", "5"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], path.name
    with capsys.disabled():
        _report(10, t, "4 exported entries analyzed twice: byte-identical "
                       "reports")
