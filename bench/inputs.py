"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is built here from one seed and
written to files; the program only ever sees those files (or, for the
lattice batch, plain integer lists). The same seed gives byte-identical
files.

* The algebra corpus follows the recipe of ``tests/conftest.py``. At the
  default seed it reproduces the test corpus entry for entry. At any other
  seed every entry keeps the default corpus's shape (kind, dimension,
  catalog pieces, whether a basis change is applied) and redraws all of its
  coefficients, so a pass costs about the same whatever the seed.
* The large algebras and the files the CLI children read are gallery
  entries and their direct sums, the same at every seed; the seed only
  orders the CLI commands. Seeded sign flips or permutations of their bases
  would be isometries, but they change which candidates the eigensplit
  tries and the order of exact elimination, and with them the cost of a
  pass.
* The lattice batch has a fixed make-up per pass; its matrices come from
  Eisenstein polynomials and seeded SL(2, Z) blocks, whose true verdicts
  are known from how they are built.
"""
from __future__ import annotations

import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from lcplab import gallery
from lcplab.fileio import save_algebra_file
from lcplab.lcp import LcpData, lcp_data_to_float
from lcplab.liealg import (MetricLieAlgebra, bracket_table, direct_sum_algebra,
                           make_algebra, to_float_algebra, transform_algebra)
from lcplab.linalg import exact_det
from lcplab.scalars import exact_array

DEFAULT_SEED = 20260819
"""Reproduces the test corpus; golden verdicts are stored for it."""

HELDOUT_SEED = 977
"""Kept out of tuning; confirm a claimed gain on it as well."""

CORPUS_SIZE = 200


# ---------------------------------------------------------------------------
# corpus: the recipe of tests/conftest.py, with optional pinned shapes

_SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
_HEISENBERG = {(0, 1): {2: 1}}
_SOLV3 = {(2, 0): {0: 1}, (2, 1): {1: -1}}
_AFFINE2 = {(0, 1): {1: 1}}

_CATALOG = [
    (1, {}),
    (2, {}),
    (2, _AFFINE2),
    (3, _SO3),
    (3, _HEISENBERG),
    (3, _SOLV3),
]


def _rational(rng) -> Fraction:
    return Fraction(int(rng.integers(-2, 3)), int(rng.choice((1, 2))))


def _rational_matrix(rng, n) -> np.ndarray:
    return exact_array([[_rational(rng) for _ in range(n)] for _ in range(n)])


def _invertible(rng, n) -> np.ndarray:
    while True:
        q = _rational_matrix(rng, n)
        if exact_det(q) != 0:
            return q


def _spd_gram(rng, n) -> np.ndarray:
    q = _invertible(rng, n)
    return q.T @ q


def _almost_abelian(rng, n) -> dict:
    entries = {}
    for j in range(n - 1):
        col = {k: _rational(rng) for k in range(n - 1)}
        col = {k: v for k, v in col.items() if v != 0}
        if col:
            entries[(n - 1, j)] = col
    return entries


def _two_step(rng, p, q) -> dict:
    entries = {}
    for i in range(p):
        for j in range(i + 1, p):
            col = {p + k: _rational(rng) for k in range(q)}
            col = {k: v for k, v in col.items() if v != 0}
            if col:
                entries[(i, j)] = col
    return entries


def _catalog_sum(rng, n, pieces: Optional[list]) -> tuple[dict, list]:
    entries: dict = {}
    used = []
    offset = 0
    while offset < n:
        idx = pieces[len(used)] if pieces is not None else int(rng.integers(0, len(_CATALOG)))
        dim, piece = _CATALOG[idx]
        if dim > n - offset:
            continue
        for (i, j), col in piece.items():
            entries[(i + offset, j + offset)] = {k + offset: v for k, v in col.items()}
        offset += dim
        used.append(idx)
    return entries, used


def build_corpus(seed: int, shapes: Optional[list] = None) -> tuple[list, list]:
    """(algebras, shapes). With ``shapes`` None the draws follow the test
    recipe exactly; otherwise each entry takes its shape from the list."""
    rng = np.random.default_rng(seed)
    out: list = []
    used_shapes: list = []
    while len(out) < CORPUS_SIZE:
        pinned = None if shapes is None else shapes[len(out)]
        kind = len(out) % 3
        if kind == 0:
            n = pinned["n"] if pinned else int(rng.integers(2, 6))
            entries = _almost_abelian(rng, n)
            shape = {"n": n}
        elif kind == 1:
            if pinned:
                p, q = pinned["p"], pinned["q"]
            else:
                p = int(rng.integers(2, 5))
                q = int(rng.integers(1, 5 - p + 1))
            n = p + q
            entries = _two_step(rng, p, q)
            shape = {"n": n, "p": p, "q": q}
        else:
            n = pinned["n"] if pinned else int(rng.integers(2, 6))
            entries, used = _catalog_sum(rng, n, pinned["pieces"] if pinned else None)
            shape = {"n": n, "pieces": used}
        g = make_algebra(bracket_table(n, entries), gram=_spd_gram(rng, n))
        changed = pinned["changed"] if pinned else bool(rng.integers(0, 2))
        if changed:
            g = transform_algebra(g, _invertible(rng, n))
        shape["changed"] = changed
        out.append(g)
        used_shapes.append(shape)
    return out, used_shapes


# ---------------------------------------------------------------------------
# large algebras


def clear_gallery_cache() -> None:
    """Gallery entries are cached per process; set-up rebuilds them."""
    for fn in (gallery.fundamental_example, gallery.product_example,
               gallery.strongly_irreducible_example, gallery.sl_example):
        fn.cache_clear()


def large_algebras(workload: str) -> list[tuple[str, MetricLieAlgebra, Optional[LcpData]]]:
    sl2 = gallery.sl_example(2)
    fund = gallery.fundamental_example().algebra
    if workload == "exact_large":
        ff = direct_sum_algebra(fund, fund)
        return [("sl2_semidirect", sl2.algebra, sl2.lcp),
                ("fund2", ff, None),
                ("fund3", direct_sum_algebra(ff, fund), None)]
    return [("sl2_semidirect_float", to_float_algebra(sl2.algebra), lcp_data_to_float(sl2.lcp)),
            ("sl2_fund_float", to_float_algebra(direct_sum_algebra(sl2.algebra, fund)), None),
            ("sl2_sl2_float", to_float_algebra(direct_sum_algebra(sl2.algebra, sl2.algebra)), None)]


# ---------------------------------------------------------------------------
# lattice batch


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_EISENSTEIN_PRIMES = (2, 3, 5, 7)
_ELLIPTIC_TRACES = (-1, 0, 1)


def _eisenstein(rng, degree: int) -> list[int]:
    """Monic, p | every lower coefficient, p^2 does not divide the constant."""
    p = int(rng.choice(_EISENSTEIN_PRIMES))
    lower = [p * int(rng.integers(-3, 4)) for _ in range(degree)]
    lower[0] = p * int(rng.choice((-1, 1))) * int(rng.integers(1, p))
    return lower + [1]


def _sl2_block(rng, trace: int) -> np.ndarray:
    """An SL(2, Z) matrix of the given trace: the companion of X^2 - tX + 1
    conjugated by a seeded product of elementary matrices."""
    a = np.array([[0, -1], [1, trace]], dtype=object)
    p = np.array([[1, 0], [0, 1]], dtype=object)
    for _ in range(3):
        k = int(rng.integers(-2, 3))
        e = np.array([[1, k], [0, 1]] if rng.integers(0, 2) else [[1, 0], [k, 1]], dtype=object)
        p = p @ e
    p_inv = np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]], dtype=object)
    return p @ a @ p_inv


def _block_diag(blocks: list[np.ndarray]) -> list[list[int]]:
    n = 2 * len(blocks)
    m = [[0] * n for _ in range(n)]
    for b, blk in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                m[2 * b + i][2 * b + j] = int(blk[i, j])
    return m


def _block_truth(traces: list[int]) -> dict:
    poly = [1]
    on = off = 0
    t0 = 0.0
    for t in traces:
        poly = _poly_mul(poly, [1, -t, 1])
        if abs(t) < 2:
            on += 2
        else:
            off += 2
            t0 = max(t0, math.log((t + math.sqrt(t * t - 4)) / 2))
    if t0 == 0.0:
        t0 = max(math.acos(t / 2) for t in traces)
    return {"char_poly": poly, "irreducible": False,
            "profile": [len(poly) - 1, on, off, 0], "t0": t0}


@dataclass
class LatticeItem:
    """One lattice input and the verdicts its construction implies.

    ``repeated`` marks a characteristic polynomial with a repeated factor.
    """

    item_id: str
    matrix: list
    probe_values: list
    truth: dict = field(default_factory=dict)
    repeated: bool = False


# one pass: every Eisenstein degree, distinct-block diagonals of sizes 4..8,
# and the repeated-block diagonal diag(A, A), repeated LATTICE_ROUNDS times
LATTICE_ROUNDS = 60


def lattice_batch(rng) -> list[LatticeItem]:
    items: list[LatticeItem] = []
    for r in range(LATTICE_ROUNDS):
        for degree in range(2, 9):
            f = _eisenstein(rng, degree)
            comp = [[0] * degree for _ in range(degree)]
            for i in range(1, degree):
                comp[i][i - 1] = 1
            for i in range(degree):
                comp[i][degree - 1] = -f[i]
            p = int(rng.choice((2, 3, 5, 7, 11, 13)))
            items.append(LatticeItem(
                f"eis{degree}.{r}", comp, [1.0, math.sqrt(p)],
                {"char_poly": f, "irreducible": True, "degree": degree,
                 "discrete": False}))
        for k in (2, 3, 4):
            pool = list(_ELLIPTIC_TRACES) + list(range(3, 40))
            traces = [int(t) for t in rng.choice(pool, size=k, replace=False)]
            truth = _block_truth(traces)
            mults = [int(m) for m in rng.integers(1, 6, size=3)] + [1]
            truth["discrete"] = True
            items.append(LatticeItem(
                f"diag{k}.{r}", _block_diag([_sl2_block(rng, t) for t in traces]),
                [m * truth["t0"] for m in mults], truth))
        t = int(rng.choice(list(_ELLIPTIC_TRACES) + list(range(3, 60))))
        blk = _sl2_block(rng, t)
        truth = _block_truth([t, t])
        truth["discrete"] = True
        items.append(LatticeItem(
            f"twin.{r}", _block_diag([blk, blk]), [truth["t0"], 2 * truth["t0"]],
            truth, repeated=True))
    return items


# ---------------------------------------------------------------------------
# workload set-up: build, then write every input file


@dataclass
class AlgebraItem:
    item_id: str
    path: str
    twin_of: Optional[str] = None


@dataclass
class Inputs:
    algebras: list = field(default_factory=list)
    lattice: list = field(default_factory=list)
    cli: list = field(default_factory=list)  # (item id, argv after "-m lcplab.cli")
    gallery_s: float = 0.0


CLI_ENTRIES = ("fundamental", "product", "strongly_irreducible")


def _lattice_commands(name: str, lat) -> list:
    m = [[int(x) for x in row] for row in lat.integer_matrix]
    poly = [int(c) for c in np.round(np.poly(np.array(m, dtype=float))[::-1])]
    probe = list(lat.translation_parts) if lat.translation_parts else [1.0, float(lat.t0)]
    dumps = lambda x: json.dumps(x, separators=(",", ":"))  # noqa: E731
    return [(f"{name}.charpoly", ["lattice", "charpoly", dumps(m), "--json"]),
            (f"{name}.irreducible", ["lattice", "irreducible", dumps(poly), "--json"]),
            (f"{name}.roots", ["lattice", "roots", dumps(poly), "--json"]),
            (f"{name}.conjugacy", ["lattice", "conjugacy", dumps(m), "--json"]),
            (f"{name}.probe", ["lattice", "probe", dumps(probe), "--json"])]


def build_inputs(workload: str, seed: int, workdir: str,
                 corpus_shapes: Optional[list], clock=time.perf_counter) -> Inputs:
    """Build the workload's inputs from ``seed`` and write them to ``workdir``.

    ``corpus_shapes`` pins the corpus shape at non-default seeds; ``clock``
    times the gallery build.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    inputs = Inputs()

    def write(item_id, g, lcp, twin_of=None):
        path = os.path.join(workdir, f"{item_id}.json")
        save_algebra_file(path, g, lcp=lcp)
        inputs.algebras.append(AlgebraItem(item_id, path, twin_of))

    if workload == "corpus_small":
        corpus, _ = build_corpus(seed, None if seed == DEFAULT_SEED else corpus_shapes)
        for k, g in enumerate(corpus):
            write(f"c{k:03d}", g, None)
            write(f"c{k:03d}f", to_float_algebra(g), None, twin_of=f"c{k:03d}")
        inputs.lattice = lattice_batch(rng)
        return inputs

    t = clock()
    clear_gallery_cache()
    if workload == "cli_cold":
        entries = gallery.all_entries()
    else:
        algebras = large_algebras(workload)
    inputs.gallery_s = clock() - t
    if workload == "cli_cold":
        # every entry is exported, as `lcplab examples --export` does; the
        # dim-14 one is too slow for a cold child and gets no command
        for e in entries:
            path = os.path.join(workdir, f"{e.name}.json")
            save_algebra_file(path, e.algebra, lcp=e.lcp, lattice=e.lattice)
            if e.name not in CLI_ENTRIES:
                continue
            inputs.cli.append((f"{e.name}.analyze", ["analyze", path, "--json"]))
            inputs.cli.append((f"{e.name}.validate", ["validate", path]))
            inputs.cli.extend(_lattice_commands(e.name, e.lattice))
        order = rng.permutation(len(inputs.cli))
        inputs.cli = [inputs.cli[i] for i in order]
        return inputs
    for name, g, lcp in algebras:
        write(name, g, lcp)
    return inputs
