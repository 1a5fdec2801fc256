"""lcplab benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout; the package is imported from ``src/``::

    python3 bench/run.py --workload corpus_small --seed 20260819 --seconds 5 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --write-golden             # refresh bench/golden.json

Each run builds its inputs from the seed (several times, to time set-up),
runs one untimed warm-up item of each kind, then runs closed-loop passes
over every item from this one process until ``--seconds`` have elapsed,
checking every output. Times are seconds at a reference speed sampled while
the work runs (see ``refclock.py``), because the host's own speed drifts
far more than the changes worth finding. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds a traced pass and a drill-down
and reports the per-layer metrics instead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# one BLAS thread: on a shared two-core machine extra threads only add noise;
# set before numpy loads (refclock imports it), so that OpenBLAS starts with one
PINNED_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)

from checks import (algebra_defect, diff_verdicts, lattice_problems,  # noqa: E402
                    same_payload, verdicts)
from refclock import PERIOD_S, REF_S, RefClock  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
WORKLOADS = ("corpus_small", "exact_large", "float_large", "cli_cold")
SETUP_REPEATS = 3
ITEM_SAMPLES = 10  # an item's scale comes from at least this many samples
CHILD_REPEATS = 3
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LCPLAB_TOL", "PYTHONPATH")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas, "nproc": os.cpu_count(),
            "cpu": cpu, "threads": PINNED_ENV, "package": "src/ of the checkout",
            "cores": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "reference": f"ref_work every {PERIOD_S} s, REF_S {REF_S} s"}


# ---------------------------------------------------------------------------
# one item of each kind: run, time, check


@dataclass
class Item:
    """Outcome of one item: seconds, problems found, known defect shown."""

    item_id: str
    seconds: float
    problems: list
    defect: str | None = None
    info: dict = field(default_factory=dict)
    samples: tuple = (0, 0)  # the clock's samples taken during the item


class Runner:
    """Runs every item of a workload once per pass and checks its output.

    In-process items are timed in work seconds of ``clock`` (reference
    samples left out). A cold child is timed by its own CPU seconds: it
    shares the one core with the samples (see ``pin_to_one_core``), and its
    wall time would count the samples it waited for.
    """

    def __init__(self, workload, seed, inputs, golden, rec=None, clock=None):
        from lcplab import cli, fileio, lattice
        self.cli, self.fileio, self.lattice = cli, fileio, lattice
        self.inputs = inputs
        self.rec = rec
        self.clock = clock or RefClock()
        want = golden["verdicts"][workload]
        # corpus verdicts depend on the seed; the other inputs do not
        self.want = want if workload != "corpus_small" or seed == golden["seed"] else {}

    def one_pass(self) -> list[Item]:
        gc.collect()
        seen: dict = {}
        jobs = [functools.partial(self._algebra, a, seen) for a in self.inputs.algebras]
        jobs += [functools.partial(self._lattice, x) for x in self.inputs.lattice]
        jobs += [functools.partial(self._child, cid, argv) for cid, argv in self.inputs.cli]
        out = []
        for job in jobs:
            mark = self.clock.mark()
            item = job()
            item.samples = (mark, self.clock.mark())
            out.append(item)
        return out

    def warm_up(self) -> None:
        """One untimed item of each kind (the smallest algebra file), so that
        first-call imports and caches are not in the first pass."""
        for a in sorted(self.inputs.algebras, key=lambda a: os.path.getsize(a.path))[:1]:
            self._algebra(a, {})
        for x in self.inputs.lattice[:1]:
            self._lattice(x)
        for cid, argv in self.inputs.cli[:1]:
            run_child(argv)

    def _item_span(self, item_id):
        if self.rec is None:
            return contextlib.nullcontext()
        self.rec.item = item_id
        return self.rec.span("item")

    def _algebra(self, a, seen: dict) -> Item:
        report = code = exc = None
        t = self.clock.now()
        with self._item_span(a.item_id):
            try:
                g, data, _ = self.fileio.load_algebra_file(a.path)
                report, code = self.cli.run_analysis(g, data, seed=0)
                self.fileio.canonical_json(report)
            except Exception as e:  # an item boundary: record it and go on
                exc = e
        seconds = self.clock.now() - t
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
            return Item(a.item_id, seconds, problems,
                        algebra_defect(a.twin_of is not None, exc, problems))
        got = verdicts(report)
        seen[a.item_id] = got
        want = self.want.get(a.twin_of or a.item_id)
        problems = [] if code == 0 else [f"exit code {code}"]
        if want is not None:
            problems += diff_verdicts(got, want)
        if a.twin_of in seen:
            problems += [f"float twin: {p}" for p in diff_verdicts(got, seen[a.twin_of])]
        dr = report["de_rham"] or {}
        info = {"factors": len(dr.get("factor_dims", ())),
                "promoted": bool(dr.get("promoted_to_float"))}
        return Item(a.item_id, seconds, problems,
                    algebra_defect(a.twin_of is not None, None, problems), info)

    def _lattice(self, x) -> Item:
        lat = self.lattice
        exc = None
        t = self.clock.now()
        with self._item_span(x.item_id):
            try:
                cp = lat.char_poly(x.matrix)
                irr = lat.is_irreducible_over_Z(cp)
                prof = lat.unit_root_profile(cp)
                conj = None
                if "t0" in x.truth:  # block diagonals: the time step is known
                    sol = lat.solve_conjugacy(x.matrix)
                    conj = (sol, None if sol is None else lat.verify_conjugacy(x.matrix, sol))
                probe = lat.discreteness_probe(x.probe_values)
            except Exception as e:  # an item boundary: record it and go on
                exc = e
        seconds = self.clock.now() - t
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = lattice_problems(x, cp, irr, prof, conj, probe)
        return Item(x.item_id, seconds, problems,
                    "repeated_factor" if x.repeated and problems else None, {"lattice": True})

    def _child(self, cid, argv) -> Item:
        cpu = children_cpu()
        with self._item_span(cid):
            proc = run_child(argv)
        seconds = children_cpu() - cpu
        want = self.want.get(cid)
        got = child_output(cid, proc.stdout)
        if want is None:
            return Item(cid, seconds, ["no golden output"])
        problems = [] if proc.returncode == want["exit"] else [
            f"exit code {proc.returncode}, want {want['exit']}: {proc.stderr.strip()[-200:]}"]
        if got is None:
            problems.append("unreadable output")
        elif cid.endswith(".analyze"):
            problems += diff_verdicts(verdicts(got), want["out"])
        elif not same_payload(got, want["out"]):
            problems.append(f"output {got!r} != {want['out']!r}")
        return Item(cid, seconds, problems)


def pin_to_one_core() -> None:
    """Run this process, and every child it starts, on one core.

    The work is single-threaded (one BLAS thread). On one core the
    reference samples see the speed the work, or a cold child, runs at; the
    cores of a shared host drift apart, so samples taken on another core do
    not track it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def children_cpu() -> float:
    """CPU seconds of every child that has ended and been waited for."""
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def run_child(argv):
    """One cold ``python -m lcplab.cli`` child; waits for it to end."""
    return subprocess.run([sys.executable, "-m", "lcplab.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def child_output(cid, stdout):
    """Parsed JSON for --json commands, the text for validate."""
    if cid.endswith(".validate"):
        return stdout
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# a run


def set_up(workload, seed, golden, clock):
    """Build and write the inputs SETUP_REPEATS times; (inputs, times, gallery
    times), in seconds at reference speed."""
    from inputs import build_inputs
    times, gallery = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        mark = clock.mark()
        t = clock.now()
        inputs = build_inputs(workload, seed, os.path.join(WORK, workload),
                              golden["corpus_shapes"], clock.now)
        compileall.compile_dir(os.path.join(SRC, "lcplab"), quiet=1, force=True)
        scale = clock.scale(mark)
        times.append((clock.now() - t) * scale)
        gallery.append(inputs.gallery_s * scale)
    return inputs, times, gallery


def measure(runner, seconds):
    """Closed-loop passes until ``seconds`` of wall time have elapsed; at
    least one. Each item's time is scaled by the reference speed sampled
    during it, its window widened to the ``ITEM_SAMPLES`` nearest samples of
    its pass if it was shorter. Returns (seconds at reference speed, items)
    per pass."""
    clock = runner.clock
    passes = []
    start = time.perf_counter()
    while True:
        first = clock.mark()
        items = runner.one_pass()
        last = clock.mark()
        for item in items:
            a, b = item.samples
            if b - a < ITEM_SAMPLES:
                a = max(first, min((a + b - ITEM_SAMPLES) // 2, last - ITEM_SAMPLES))
                b = a + ITEM_SAMPLES
            item.seconds *= clock.scale(a, b)
        passes.append((sum(item.seconds for item in items), items))
        if time.perf_counter() - start >= seconds:
            return passes


def pass_seconds(passes):
    return statistics.median(t for t, _ in passes)


def summary(passes):
    items = [i for _, p in passes for i in p]
    failed = [i for i in items if i.problems]
    return items, failed, all(i.defect is not None for i in failed)


def p99(values):
    """99th percentile, interpolated between the two nearest values.

    It is the tail: on a few large items it sits next to the slowest one; on
    ~1000 small ones it has ten items beyond it, so one stalled item does
    not set it.
    """
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload, passes, setup_times):
    items, failed, _ = summary(passes)
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (pass_seconds(passes), "s"),
        "item_s_p99": (p99([i.seconds for i in items]), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - len(failed) / len(items), "share"),
    }


def child_seconds(code, clock):
    times = []
    for _ in range(CHILD_REPEATS):
        mark = clock.mark()
        cpu = children_cpu()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append((children_cpu() - cpu) * clock.scale(mark))
    return statistics.median(times)


def per_layer(workload, seed, inputs, golden, base_passes, gallery_times, seconds, clock):
    """The traced run: traced passes, drill-down, cold children; (metrics, passes)."""
    import spans
    from lcplab import fileio
    rec = spans.Recorder(clock.now)
    runner = Runner(workload, seed, inputs, golden, rec, clock)
    mark = clock.mark()
    with rec.patched(spans.PIPELINE + spans.LATTICE):
        passes = measure(runner, seconds)
    stage_scale = clock.scale(mark)
    npass = len(passes)
    counts = dict.fromkeys(spans.COUNTS, 0)
    mark = clock.mark()
    for a in inputs.algebras:
        try:
            g, data, _ = fileio.load_algebra_file(a.path)
            for k, v in spans.drill_down(rec, a.item_id, g, data).items():
                counts[k] += v
        except Exception as e:  # an item boundary: report it and go on
            print(f"drill-down {a.item_id}: {type(e).__name__}: {e}", file=sys.stderr)
    drill_scale = clock.scale(mark)
    rec.item = None
    totals = rec.totals()
    m = {}
    for name in spans.STAGES + spans.DRILL:
        busy, calls, bad = totals.get(name, (0.0, 0, 0))
        div, scale = (npass, stage_scale) if name in spans.STAGES else (1, drill_scale)
        m[f"{name}_s"] = (busy * scale / div, "s")
        m[f"{name}.calls"] = (calls / div, "count")
        m[f"{name}.failed"] = (bad / div, "count")
    uses_gallery = workload != "corpus_small"
    m["gallery.build_s"] = (statistics.median(gallery_times) if uses_gallery else 0.0, "s")
    m["gallery.build.calls"] = (float(uses_gallery), "count")
    for name, code in spans.CHILDREN.items():
        m[f"{name}_s"] = (child_seconds(code, clock), "s")
        m[f"{name}.calls"] = (float(CHILD_REPEATS), "count")
    items, failed, _ = summary(passes)
    algebra = [i for i in items if "factors" in i.info]
    counts["holonomy.factors"] = sum(i.info["factors"] for i in algebra) / npass
    counts["holonomy.promoted"] = sum(i.info["promoted"] for i in algebra) / npass
    cand = counts["holonomy.closure_candidates"]
    counts["holonomy.closure_keep_ratio"] = counts["holonomy.hol_dim"] / cand if cand else 0.0
    for name in spans.COUNTS:
        m[name] = (float(counts[name]), "ratio" if name.endswith("ratio") else "count")
    m["lattice.wrong_verdicts"] = (
        sum(1 for i in failed if "lattice" in i.info) / npass, "count")
    m["fail_share"] = (len(failed) / len(items), "share")
    m["bench.trace_overhead_share"] = (pass_seconds(passes) / pass_seconds(base_passes) - 1.0,
                                       "share")
    os.makedirs(WORK, exist_ok=True)
    rec.write(os.path.join(WORK, f"trace-{workload}-{seed}.json"))
    return m, passes


def run_workload(workload, seed, seconds, traced) -> int:
    golden = load_golden()
    with RefClock() as clock:
        inputs, setup_times, gallery_times = set_up(workload, seed, golden, clock)
        runner = Runner(workload, seed, inputs, golden, clock=clock)
        runner.warm_up()
        passes = measure(runner, seconds)
        metrics = end_to_end(workload, passes, setup_times)
        if traced:
            metrics, passes = per_layer(workload, seed, inputs, golden, passes,
                                        gallery_times, seconds, clock)
    items, failed, correct = summary(passes)
    print(f"workload {workload}, seed {seed}, {len(passes)} pass(es) of "
          f"{len(items) // len(passes)} items, trace {int(traced)}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"reference samples {len(clock.samples)}, mean {statistics.fmean(clock.samples):.6g} s "
          f"per ref_work call (nominal {REF_S:g} s)")
    for item in failed:
        tag = f"known defect {item.defect}" if item.defect else "UNEXPECTED"
        print(f"failed {item.item_id} ({tag}): {'; '.join(item.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(items), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# golden verdicts at the default seed


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden() -> int:
    """Record the outputs at the default seed as the reference verdicts."""
    from inputs import DEFAULT_SEED, build_corpus, build_inputs
    from lcplab import cli, fileio
    _, shapes = build_corpus(DEFAULT_SEED)
    golden = {"seed": DEFAULT_SEED, "corpus_shapes": shapes, "verdicts": {}}
    for workload in WORKLOADS:
        inputs = build_inputs(workload, DEFAULT_SEED, os.path.join(WORK, workload), shapes)
        out = golden["verdicts"][workload] = {}
        for a in inputs.algebras:
            if a.twin_of is not None:
                continue
            g, data, _ = fileio.load_algebra_file(a.path)
            report, code = cli.run_analysis(g, data, seed=0)
            out[a.item_id] = verdicts(report)
        for cid, argv in inputs.cli:
            proc = run_child(argv)
            got = child_output(cid, proc.stdout)
            out[cid] = {"exit": proc.returncode,
                        "out": verdicts(got) if cid.endswith(".analyze") else got}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(seed, seconds, traced) -> int:
    """Every workload in its own process, each printing its own metrics."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(traced))], cwd=ROOT, timeout=900)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; the default reproduces the test corpus")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcplab", "__init__.py")):
        print(f"bench: no lcplab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("LCPLAB_TOL", None)
    pin_to_one_core()
    sys.path[:0] = [SRC, BENCH_DIR]
    if args.seed is None:
        from inputs import DEFAULT_SEED
        args.seed = DEFAULT_SEED
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
