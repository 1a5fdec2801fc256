"""Spans for the traced run, recorded from outside the program.

The traced run times the calls into each module's public functions by
swapping timing wrappers into the module attributes through which the
benchmark and ``cli.run_analysis`` reach them; the untraced run installs
nothing. Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Optional

import numpy as np

from lcplab import cli, fileio, holonomy, lattice, lcp, liealg, linalg
from lcplab.errors import LcplabError
from lcplab.scalars import FLOAT

# the calls run_analysis makes, in its order, plus the load and the report
# serialisation cmd_analyze wraps around it
PIPELINE = (
    ("fileio.load", fileio, "load_algebra_file"),
    ("liealg.validate", cli, "validate_algebra"),
    ("liealg.unimodular", cli, "is_unimodular"),
    ("holonomy.split", cli, "de_rham_splitting"),
    ("holonomy.subalgebra_check", cli, "verify_factor_subalgebras"),
    ("holonomy.witness", cli, "reducibility_witness"),
    ("lcp.validate", cli, "validate_lcp"),
    ("lcp.decomposable", cli, "lcp_decomposable"),
    ("fileio.report", fileio, "canonical_json"),
)
LATTICE = (
    ("lattice.charpoly", lattice, "char_poly"),
    ("lattice.irreducible", lattice, "is_irreducible_over_Z"),
    ("lattice.roots", lattice, "unit_root_profile"),
    ("lattice.conjugacy", lattice, "solve_conjugacy"),
    ("lattice.conjugacy", lattice, "verify_conjugacy"),
    ("lattice.probe", lattice, "discreteness_probe"),
)
DRILL = ("liealg.levi_civita", "liealg.curvature", "holonomy.closure",
         "holonomy.commutant", "linalg.nullspace", "linalg.eigensplit", "lcp.weyl")
CHILDREN = {
    "cli.import": "import lcplab",
    "cli.import_deps": "import numpy, scipy.linalg",
    "cli.interpreter": "pass",
}
STAGES = tuple(dict.fromkeys(name for name, _, _ in PIPELINE + LATTICE))
COUNTS = ("holonomy.hol_dim", "holonomy.curvature_seeds", "holonomy.closure_candidates",
          "holonomy.closure_keep_ratio", "holonomy.factors", "holonomy.promoted")


class Recorder:
    """Spans as (name, start, end, parent index, item id, failed)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self.item: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        failed = True
        start = self.clock()
        try:
            yield
            failed = False
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.item, failed)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    @contextlib.contextmanager
    def patched(self, targets):
        saved = [(mod, attr, getattr(mod, attr)) for _, mod, attr in targets]
        for name, mod, attr in targets:
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def totals(self) -> dict:
        """name -> [busy seconds, calls, failed calls]."""
        out: dict = {}
        for name, start, end, _, _, failed in self.spans:
            acc = out.setdefault(name, [0.0, 0, 0])
            acc[0] += end - start
            acc[1] += 1
            acc[2] += failed
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "item", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def drill_down(rec: Recorder, item_id: str, g, data) -> dict:
    """Time the inner steps of the analysis one by one on one algebra.

    Returns the counts: curvature seeds, holonomy dimension and the closure
    candidates implied by them (seeds + n * hol_dim, computed, not counted).
    """
    rec.item = item_id
    n = g.dim
    with rec.span("liealg.levi_civita"):
        conn = liealg.levi_civita(g)
    sc = linalg.scale_of(g.bracket, g.gram) if g.mode == FLOAT else 1.0
    seeds = 0
    with rec.span("liealg.curvature"):
        for i in range(n):
            for j in range(i + 1, n):
                r = liealg.curvature_operator(g, conn, i, j)
                # the test holonomy_algebra applies to its seeds
                seeds += not linalg.is_zero_matrix(r, g.mode, g.tol, scale=max(1.0, sc * sc))
    with rec.span("holonomy.closure"):
        hol = holonomy.holonomy_algebra(g, conn)
    with rec.span("holonomy.commutant"):
        comm = holonomy.symmetric_commutant(list(hol.basis), g.gram, g.mode, g.tol)
    if hol.dim:
        with rec.span("linalg.nullspace"):
            linalg.rank_and_nullspace(np.concatenate(list(hol.basis), axis=0), g.mode, g.tol)
    # selfadjoint_eigensplit keeps dim <= 5 exact and factors the
    # characteristic polynomial by trial division of its coefficients; on
    # commutant elements the analysis itself never splits (corpus c004, dim
    # 5) that runs for minutes, so only the float and promotion paths are
    # timed here, and the exact one inside holonomy.split
    if len(comm) > 1 and (g.mode == FLOAT or n > 5):
        for p in comm:
            with contextlib.suppress(LcplabError), rec.span("linalg.eigensplit"):
                linalg.selfadjoint_eigensplit(p, g.gram, g.mode, g.tol)
    if data is not None:
        with rec.span("lcp.weyl"):
            lcp.weyl_connection(g, data.lee_covector)
    return {"holonomy.hol_dim": hol.dim, "holonomy.curvature_seeds": seeds,
            "holonomy.closure_candidates": seeds + n * hol.dim}
