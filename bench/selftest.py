"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

They check that inputs are reproducible, that the checker catches planted
failures, and that the traced run does the same work as the untraced one.
"""
import filecmp
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import checks  # noqa: E402
import inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from lcplab import cli, fileio  # noqa: E402
from lcplab.errors import TheoremViolationError  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


@pytest.fixture
def tmp_path(request):
    """A fresh directory inside the benchmark's own scratch area."""
    path = os.path.join(run.WORK, "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return Path(path)


def _same_tree(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 5])
def test_same_seed_same_inputs(tmp_path, golden, seed):
    for workload in ("corpus_small", "cli_cold"):
        a = inputs.build_inputs(workload, seed, str(tmp_path / "a" / workload),
                                golden["corpus_shapes"])
        b = inputs.build_inputs(workload, seed, str(tmp_path / "b" / workload),
                                golden["corpus_shapes"])
        _same_tree(tmp_path / "a" / workload, tmp_path / "b" / workload)
        assert [vars(x) for x in a.lattice] == [vars(x) for x in b.lattice]
        assert ([(c, [x.replace(str(tmp_path / "a"), "") for x in argv]) for c, argv in a.cli]
                == [(c, [x.replace(str(tmp_path / "b"), "") for x in argv]) for c, argv in b.cli])


def test_default_seed_is_the_test_corpus(golden):
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "tests"))
    from conftest import build_corpus as test_corpus
    ours, shapes = inputs.build_corpus(inputs.DEFAULT_SEED)
    assert shapes == golden["corpus_shapes"]
    for g, h in zip(ours, test_corpus(), strict=True):
        assert fileio.algebra_to_dict(g) == fileio.algebra_to_dict(h)


def test_pinned_shapes_hold_at_other_seeds(golden):
    _, shapes = inputs.build_corpus(5, golden["corpus_shapes"])
    assert shapes == golden["corpus_shapes"]


def _runner(tmp_path, golden, workload="corpus_small"):
    built = inputs.build_inputs(workload, inputs.DEFAULT_SEED, str(tmp_path),
                                golden["corpus_shapes"])
    built.algebras = built.algebras[:6]
    built.lattice = built.lattice[:11]
    return run.Runner(workload, inputs.DEFAULT_SEED, built, golden)


def test_clean_pass_is_correct(tmp_path, golden):
    items = _runner(tmp_path, golden).one_pass()
    assert all(not i.problems for i in items if not i.item_id.startswith("twin"))
    assert run.summary([(0.0, items)])[2]


def test_planted_wrong_verdict_is_caught(tmp_path, golden, monkeypatch):
    real = cli.run_analysis

    def wrong(g, data=None, seed=0):
        report, code = real(g, data, seed)
        report["holonomy_dim"] += 1
        return report, code

    monkeypatch.setattr(cli, "run_analysis", wrong)
    items = _runner(tmp_path, golden).one_pass()
    bad = [i for i in items if i.item_id == "c000"][0]
    assert any(p.startswith("holonomy_dim") for p in bad.problems)
    assert bad.defect is None
    assert not run.summary([(0.0, items)])[2]


def test_planted_exception_is_caught(tmp_path, golden, monkeypatch):
    def boom(g, data=None, seed=0):
        raise TheoremViolationError("planted")

    monkeypatch.setattr(cli, "run_analysis", boom)
    items = _runner(tmp_path, golden).one_pass()
    exact = [i for i in items if i.item_id.startswith("c") and not i.item_id.endswith("f")]
    assert exact and all(i.problems and i.defect is None for i in exact)
    assert not run.summary([(0.0, items)])[2]


def test_planted_lattice_verdict_is_caught(tmp_path, golden, monkeypatch):
    from lcplab import lattice
    monkeypatch.setattr(lattice, "is_irreducible_over_Z", lambda coeffs: False)
    items = _runner(tmp_path, golden).one_pass()
    eis = [i for i in items if i.item_id.startswith("eis")]
    assert eis and all("irreducible False != True" in i.problems for i in eis)
    assert not run.summary([(0.0, items)])[2]


def test_known_defects_are_narrow():
    exc = TheoremViolationError("holonomy invariant factor is not connection invariant")
    assert checks.algebra_defect(True, exc, ["raised"]) == "float_twin_holonomy"
    assert checks.algebra_defect(False, exc, ["raised"]) is None
    assert checks.algebra_defect(True, ValueError("x"), ["raised"]) is None
    hol = ["float twin: holonomy_dim: got 15, want 3",
           "float twin: factors: got [[5, False]], want [[2, True], [3, False]]"]
    assert checks.algebra_defect(True, None, hol) == "float_twin_holonomy"
    assert checks.algebra_defect(False, None, hol) is None
    assert checks.algebra_defect(True, None, hol[1:]) is None
    assert checks.algebra_defect(True, None, hol + ["unimodular: got False, want True"]) is None


def test_traced_stages_match_run_analysis(tmp_path, golden):
    built = inputs.build_inputs("exact_large", inputs.DEFAULT_SEED, str(tmp_path),
                                golden["corpus_shapes"])
    rec = spans.Recorder()
    order = [name for name, _, _ in spans.PIPELINE]
    for a in built.algebras:
        g, data, _ = fileio.load_algebra_file(a.path)
        plain = checks.verdicts(cli.run_analysis(g, data, seed=0)[0])
        start = len(rec.spans)
        with rec.patched(spans.PIPELINE):
            g, data, _ = fileio.load_algebra_file(a.path)
            report, code = cli.run_analysis(g, data, seed=0)
            fileio.canonical_json(report)
        assert code == 0
        assert checks.verdicts(report) == plain == golden["verdicts"]["exact_large"][a.item_id]
        names = [s[0] for s in rec.spans[start:]]
        assert names == [n for n in order if n in names]
        assert "holonomy.split" in names
    # the wrappers are gone again
    assert cli.run_analysis.__module__ == "lcplab.cli"
    assert cli.de_rham_splitting.__name__ == "de_rham_splitting"
    assert not hasattr(cli.de_rham_splitting, "__wrapped__")


def test_reference_clock_leaves_its_samples_out():
    clock = refclock.RefClock()
    assert clock.scale() == 1.0 and clock.now() == pytest.approx(time.perf_counter(), abs=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with clock:
        t, w = time.perf_counter(), clock.now()
        while time.perf_counter() - t < 0.5:
            pass
        wall, work = time.perf_counter() - t, clock.now() - w
    assert len(clock.samples) >= 5
    assert work == pytest.approx(wall - sum(clock.samples), abs=1e-3)
    assert clock.scale() == pytest.approx(refclock.REF_S * len(clock.samples) / sum(clock.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
