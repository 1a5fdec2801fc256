"""Integer-matrix side of the compact quotient construction.

A compact quotient of a solvable model needs a unimodular integer matrix
conjugate to a point on a one-parameter subgroup, plus translation parts
that generate a discrete subgroup of the line. This module provides the
exact characteristic polynomial, an exact irreducibility test over the
integers through degree 8, classification of eigenvalue moduli, the
conjugacy solver, and a numeric discreteness probe.
Irreducibility is exact: "reducible" by an integer factor that divides,
"irreducible" by trying every factor a lift past the Mignotte bound gives.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, zip_longest
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .linalg import _primitive, charpoly_exact, exact_det
from .scalars import as_fraction, finite_float


def _as_int(x, where: str) -> int:
    if type(x) is int:  # not bool, which takes the checked path
        return x
    # as_fraction's own message for a float speaks of an exact mode, which
    # the lattice commands do not have
    try:
        f = as_fraction(int(x) if isinstance(x, (bool, np.bool_)) else x)
    except InputError:
        f = None
    if f is None or f.denominator != 1:
        raise InputError(f"{where} = {x} is not an integer")
    return int(f)


def _as_int_matrix(m: Sequence) -> np.ndarray:
    arr = np.array(m, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("expected a square matrix")
    out = np.empty(arr.shape, dtype=object)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            out[i, j] = _as_int(arr[i, j], f"entry ({i}, {j})")
    return out


def char_poly(m: Sequence) -> tuple[int, ...]:
    """Characteristic polynomial of an integer matrix, constant term first."""
    return tuple(int(c) for c in charpoly_exact(_as_int_matrix(m)))


def companion(coeffs: Sequence[int]) -> np.ndarray:
    """Companion matrix of a monic integer polynomial, constant term first."""
    cs = [int(c) for c in coeffs]
    if len(cs) < 2:
        raise InputError("polynomial must have degree at least one")
    if cs[-1] != 1:
        raise InputError("companion form needs a monic polynomial")
    d = len(cs) - 1
    m = np.zeros((d, d), dtype=object)
    m[:] = 0
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = -cs[i]
    return m


def is_unimodular_matrix(m: Sequence) -> bool:
    return abs(exact_det(_as_int_matrix(m))) == 1


# ---------------------------------------------------------------------------
# irreducibility over the integers


def _strip(coeffs: Sequence[int]) -> list[int]:
    if len(coeffs) == 0:
        raise InputError("a polynomial needs at least one coefficient")
    cs = [_as_int(c, f"coefficient {k}") for k, c in enumerate(coeffs)]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Integer pseudo-division (constant-first lists, b nonzero).

    Returns the primitive parts of q and r in lc(b)**k * a = q * b + r,
    deg r < deg b: r is zero exactly when b divides a over Q, and q is
    a / b up to a rational factor. No ``Fraction`` arithmetic is needed.
    """
    q = [0] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and any(r):
        lead, shift = r[-1], len(r) - len(b)
        q = [b[-1] * c for c in q]
        q[shift] += lead
        r = [b[-1] * c for c in r]
        for k, c in enumerate(b):
            r[shift + k] -= lead * c
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return _primitive(q), _primitive(r)


def _gcd_with_derivative(f: list[int]) -> list[int]:
    """gcd(f, f') over Q as a primitive integer polynomial (deg f >= 1),
    by Euclid's algorithm on pseudo-remainders."""
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while any(b):
        a, b = b, _pseudo_divide(a, b)[1]
    return _primitive(a)


SIEVE_PRIMES = 2  # primes whose factor degrees the irreducibility sieve intersects

# Polynomials mod m below are constant-first lists of residues without
# trailing zeros; the zero polynomial is [].


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for y in b:
            out[i] += x * y
            i += 1
    return _trim([c % m for c in out])


def _prod(gs: list[list[int]], c: int, m: int) -> list[int]:
    """c * prod(gs) mod m."""
    out = [c % m]
    for g in gs:
        out = _mul(out, g, m)
    return out


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod the prime p (b nonzero)."""
    r, db, inv, low = list(a), len(b) - 1, pow(b[-1], -1, p), b[:-1]
    q = [0] * (len(r) - db)
    for s in range(len(q) - 1, -1, -1):
        c = q[s] = r[s + db] * inv % p
        if c:
            k = s
            for y in low:
                r[k] -= c * y
                k += 1
    return _trim(q), _trim([c % p for c in r[:db]])


def _monic_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a**e mod (g, p) for e >= 1 and a reduced mod g."""
    out = a
    for bit in bin(e)[3:]:
        out = _divmod(_mul(out, out, p), g, p)[1]
        if bit == "1":
            out = _divmod(_mul(out, a, p), g, p)[1]
    return out


def _inverse(a: list[int], g: list[int], p: int) -> list[int]:
    """a**-1 mod (g, p) for a coprime to g, by extended Euclid."""
    r0, r1, s0, s1 = g, _divmod(a, g, p)[1], [], [1]
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the degree-d irreducible factors) of a monic square-free
    f mod p for each d that occurs: the factors that divide X^(p^d) - X."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _monic_gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic factors of g mod p, all irreducible of degree d, by Cantor-
    Zassenhaus: gcd(g, a^((p^d - 1)/2) - 1) splits g for about half the a."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        h = _monic_gcd(g, _sub(_powmod(a, (p ** d - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod(g, h, p)[0], d, p, rng))


def _hensel_lift(f: list[int], gs: list[list[int]], p: int, m: int,
                 bound: int) -> tuple[list[list[int]], int]:
    """Lift f = lc(f) * prod(gs) mod m, m a power of p, to mod the first
    power of p above bound; the gs are monic and pairwise coprime mod p.

    A step from m to m * p: with e = (f - lc * prod gs) / m mod p and s_i
    the inverse of lc * prod_{j != i} g_j mod (g_i, p), g_i += m * (e * s_i
    mod g_i). The error is then zero mod m * p, as sum_i s_i * lc *
    prod_{j != i} g_j = 1 mod p: both sides agree mod each g_i.
    """
    base = [[c % p for c in g] for g in gs]
    s = [_inverse(_prod(base[:i] + base[i + 1:], f[-1], p), g, p)
         for i, g in enumerate(base)]
    while m <= bound:
        mp = m * p
        e = _trim([(x - y) % mp // m for x, y
                   in zip_longest(f, _prod(gs, f[-1], mp), fillvalue=0)])
        gs = [[c + m * dc for c, dc in
               zip_longest(g, _divmod(_mul(e, si, p), g0, p)[1], fillvalue=0)]
              for g, g0, si in zip(gs, base, s)]
        m = mp
    return gs, m


def _has_factor(f: list[int], gs: list[list[int]], m: int, sieve: int) -> bool:
    """Whether lc(f) * prod(subset of gs) in symmetric residues mod m has a primitive
    part dividing f over Z, for a subset of degree <= deg(f) / 2 the sieve allows."""
    lc, half, n = f[-1], m // 2, len(f) - 1
    for size in range(1, len(gs)):
        for sub in combinations(gs, size):
            d = sum(len(g) - 1 for g in sub)
            if 2 * d > n or not sieve >> d & 1:
                continue
            c0 = math.prod([lc] + [g[0] for g in sub]) % m
            c0 = c0 - m if c0 > half else c0
            # the constant term of a factor's candidate divides lc * f(0)
            if c0 == 0 or lc * f[0] % c0:
                continue
            cand = _primitive([c - m if c > half else c for c in _prod(sub, lc, m)])
            if not any(_pseudo_divide(f, cand)[1]):
                return True
    return False


def _primes_for(f: list[int]):
    """(p, f made monic mod p) for the odd primes p that keep deg f and f
    square-free: all but those dividing lc(f) or disc(f), which is not 0."""
    p = 1
    while True:
        p += 2
        if f[-1] % p == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        inv = pow(f[-1], -1, p)
        fp = [c * inv % p for c in f]
        if len(_monic_gcd(fp, _trim([k * c % p for k, c in enumerate(fp)][1:]), p)) == 1:
            yield p, fp


def is_irreducible_over_Z(coeffs: Sequence[int]) -> bool:
    """Irreducibility in Z[X] up to units, implemented through degree 8.

    Exact, by factoring mod p (Zassenhaus 1969; von zur Gathen & Gerhard,
    *Modern Computer Algebra*, ch. 14-15), once the content, X | f and a
    repeated factor (gcd(f, f') over Q) are dealt with. A factor over Z has
    a subset sum of the factor degrees mod p as its degree at every prime p
    (not dividing lc, f square-free mod p): if no degree in 1..n-1 is one at
    all of SIEVE_PRIMES primes, f is irreducible. Else the prime with the
    fewest factors is split by seeded Cantor-Zassenhaus and its factors are
    lifted by Hensel to p^k > 2 |lc| 2^(n//2) ||f||_2, which bounds twice
    the coefficients of lc/lc(h) * h for a factor h of degree <= n/2
    (Mignotte), so that in symmetric residues is lc times the product of
    h's lifted factors. Hence f is irreducible when no subset of degree
    <= n/2 gives a candidate whose primitive part divides f; one that
    divides proves "reducible" at any precision (lower ones go first).

    The cap keeps the recombination, up to 2^8 subsets, small.
    """
    cs = _strip(coeffs)
    n = len(cs) - 1
    if n == 0:
        return False
    if n > 8:
        raise InputError("irreducibility test is implemented through degree 8")
    cs = _primitive(cs)
    if cs[0] == 0:
        return n == 1
    if n == 1:
        return True
    if len(_gcd_with_derivative(cs)) > 1:
        return False
    sieve, best = (1 << n) - 2, None  # bit d: a factor of degree d is possible
    for _, (p, fp) in zip(range(SIEVE_PRIMES), _primes_for(cs)):
        parts = _distinct_degree(fp, p)
        degrees, sums = [d for d, g in parts for _ in range((len(g) - 1) // d)], 1
        for d in degrees:
            sums |= sums << d
        sieve &= sums
        if not sieve:
            return True
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, parts)
    _, p, parts = best
    rng = random.Random(0)
    gs = [h for d, g in parts for h in _equal_degree(g, d, p, rng)]
    m, lc = p, abs(cs[-1])
    bound = 2 * lc * 2 ** (n // 2) * (math.isqrt(sum(c * c for c in cs)) + 1)
    bits = 8  # 8, 16, 32, ... bits beyond 2 |lc|, then the bound
    while True:
        stage = min(2 * lc << bits, bound)
        gs, m = _hensel_lift(cs, gs, p, m, stage)
        if _has_factor(cs, gs, m, sieve):
            return False
        if stage == bound:
            return True
        bits *= 2


# ---------------------------------------------------------------------------
# eigenvalue classification


@dataclass(frozen=True)
class UnitRootProfile:
    degree: int
    on_circle: int
    real_off_circle: int
    complex_off_circle: int


def _roots(cs: list[int]) -> np.ndarray:
    """The complex roots of f (deg f >= 1) with multiplicity, each found as
    a simple root: those of the square-free part f / gcd(f, f'), then those
    of gcd(f, f'), which holds each repeated factor once less.
    """
    common = _gcd_with_derivative(cs)
    if len(common) == 1:
        return np.roots([float(c) for c in reversed(cs)])
    return np.concatenate([_roots(_pseudo_divide(cs, common)[0]), _roots(common)])


def unit_root_profile(coeffs: Sequence[int], tol: float = 1e-9) -> UnitRootProfile:
    """Count roots on the unit circle, real off it, and complex off it.

    A root within the relative tolerance of the circle counts as on it,
    before any realness decision is made. Repeated roots count with their
    multiplicity, without the spread a numeric multiple root would have.
    """
    cs = _strip(coeffs)
    if cs == [0]:
        raise InputError("the zero polynomial has every number as a root")
    deg = len(cs) - 1
    if deg == 0:
        return UnitRootProfile(0, 0, 0, 0)
    roots = _roots(cs)
    on = real_off = complex_off = 0
    for r in roots:
        mod = abs(r)
        if abs(mod - 1.0) <= tol * max(1.0, mod):
            on += 1
        elif abs(r.imag) <= tol * max(1.0, mod):
            real_off += 1
        else:
            complex_off += 1
    return UnitRootProfile(deg, on, real_off, complex_off)


# ---------------------------------------------------------------------------
# conjugacy onto a one-parameter subgroup


@dataclass(frozen=True, eq=False)
class ConjugacySolution:
    """C^-1 A C = exp(t0 * generator), generator in block form.

    Block form: 1x1 blocks lambda, then 2x2 blocks [[0, -mu], [mu, 0]] on
    the diagonal, and exactly 0 at every other entry. :func:`verify_conjugacy`
    raises InputError for a generator of any other form.
    """

    t0: float
    generator: np.ndarray
    conjugator: np.ndarray


def solve_conjugacy(m: Sequence, tol: float = 1e-9) -> Optional[ConjugacySolution]:
    """Express an integer matrix as a time-t0 point of a one-parameter group.

    Eigenvalues must be positive reals or unit-circle pairs; negative
    reals and off-circle complex pairs are rejected since no real
    one-parameter subgroup of the allowed block type reaches them. A
    defective matrix returns None. The time step is normalized to the log
    of the largest real eigenvalue when one exceeds 1, else to the
    largest rotation angle.
    """
    arr = _as_int_matrix(m).astype(np.float64)
    n = arr.shape[0]
    w, v = np.linalg.eig(arr)
    scale = float(np.max(np.abs(w)))
    used = [False] * n
    real_items: list[tuple[float, np.ndarray]] = []  # (log lambda, eigenvector)
    rot_items: list[tuple[float, np.ndarray, np.ndarray]] = []  # (angle, vi, vr)
    for i in range(n):
        if used[i]:
            continue
        lam = w[i]
        if abs(lam.imag) <= tol * max(1.0, scale):
            lam_r = float(lam.real)
            if lam_r <= 0:
                raise InputError(
                    f"eigenvalue {lam_r:.6g} is not positive; no admissible "
                    "one-parameter subgroup reaches this matrix")
            real_items.append((math.log(lam_r), v[:, i].real))
            used[i] = True
            continue
        if abs(abs(lam) - 1.0) > tol * max(1.0, scale):
            raise InputError(
                f"complex eigenvalue {lam:.6g} is off the unit circle; no "
                "admissible one-parameter subgroup reaches this matrix")
        # find the conjugate partner
        partner = None
        for j in range(i + 1, n):
            if not used[j] and abs(w[j] - np.conj(lam)) <= 1e-7 * max(1.0, scale):
                partner = j
                break
        if partner is None:
            return None
        mu = abs(math.atan2(lam.imag, lam.real))
        vec = v[:, i] if lam.imag > 0 else v[:, partner]
        rot_items.append((mu, vec.imag.copy(), vec.real.copy()))
        used[i] = True
        used[partner] = True
    real_items.sort(key=lambda p: -p[0])
    rot_items.sort(key=lambda p: -p[0])
    cols = [vec for _, vec in real_items] + [v for _, vi, vr in rot_items for v in (vi, vr)]
    c = np.stack(cols, axis=1)
    if np.linalg.matrix_rank(c, tol=1e-9 * max(1.0, float(np.max(np.abs(c))))) < n:
        return None  # defective: eigenvectors do not fill the space
    if real_items and real_items[0][0] > 0:
        t0 = real_items[0][0]
    elif rot_items:
        t0 = rot_items[0][0]
    else:
        t0 = 1.0  # identity-like: any time step works
    gen = np.zeros((n, n))
    pos = 0
    for lg, _ in real_items:
        gen[pos, pos] = lg / t0
        pos += 1
    for mu, _, _ in rot_items:
        gen[pos, pos + 1] = -mu / t0
        gen[pos + 1, pos] = mu / t0
        pos += 2
    return ConjugacySolution(t0=t0, generator=gen, conjugator=c)


def _block_form_exp(t0: float, gen: np.ndarray) -> np.ndarray:
    """exp(t0 * gen) for a generator in block form, in closed form.

    A 1x1 block lambda gives e^(t0 lambda); a 2x2 block [[0, -mu], [mu, 0]]
    gives the rotation by t0 mu. A pair of entries just off the diagonal
    that is not both 0 opens a 2x2 block, which must then be exactly that
    skew form; every entry outside the blocks must be exactly 0.
    """
    n = gen.shape[0]
    if gen.shape != (n, n):
        raise InputError("generator is not a square matrix")
    out = np.zeros((n, n))
    rest = gen.copy()  # the entries outside the blocks, once these are cleared
    pos = 0
    while pos < n:
        if pos + 1 < n and (gen[pos, pos + 1] != 0 or gen[pos + 1, pos] != 0):
            mu = gen[pos + 1, pos]
            if gen[pos, pos] != 0 or gen[pos + 1, pos + 1] != 0 or gen[pos, pos + 1] != -mu:
                raise InputError(f"generator block at row {pos} is not of the form "
                                 "[[0, -mu], [mu, 0]]")
            c, s = math.cos(t0 * mu), math.sin(t0 * mu)
            out[pos:pos + 2, pos:pos + 2] = [[c, -s], [s, c]]
            rest[pos:pos + 2, pos:pos + 2] = 0
            pos += 2
        else:
            out[pos, pos] = math.exp(t0 * gen[pos, pos])
            rest[pos, pos] = 0
            pos += 1
    if rest.any():
        raise InputError("generator has a nonzero entry outside its diagonal blocks")
    return out


def verify_conjugacy(m: Sequence, solution: ConjugacySolution) -> float:
    """Largest entry of C^-1 A C - exp(t0 * generator).

    The exponential is taken in closed form, so the generator must be in
    the block form :func:`solve_conjugacy` builds (see
    :class:`ConjugacySolution`); any other generator raises InputError.
    """
    arr = _as_int_matrix(m).astype(np.float64)
    c = solution.conjugator
    target = _block_form_exp(solution.t0, solution.generator)
    defect = np.linalg.solve(c, arr @ c) - target
    return float(np.max(np.abs(defect)))


# ---------------------------------------------------------------------------
# discreteness of translation parts


@dataclass(frozen=True)
class ProbeResult:
    discrete: bool
    rank: Optional[int]
    generator: Optional[float]


@dataclass(frozen=True, eq=False)
class LatticeData:
    """Integer data attached to a worked example."""

    integer_matrix: np.ndarray
    t0: Optional[float] = None
    translation_parts: Optional[tuple[float, ...]] = None


def discreteness_probe(values: Sequence[float], tol: float = 1e-6,
                       max_rounds: int = 256) -> ProbeResult:
    """Numeric probe: do the values generate a discrete subgroup of the line?

    Runs subtractive reduction on the generators. Commensurable inputs
    terminate at their common measure; incommensurable ones drive the
    smallest element below the accumulation threshold, which is reported
    as non-discrete. A probe, not a proof: exact rationality questions
    about nearly commensurable inputs are beyond float inputs.
    """
    vals = [abs(finite_float(x, f"value {k}")) for k, x in enumerate(values)]
    scale = max(vals, default=0.0)
    if scale == 0.0:
        return ProbeResult(discrete=True, rank=0, generator=None)
    floor = 1e-13 * scale
    work = sorted({v for v in vals if v > floor})
    for _ in range(max_rounds):
        g = work[0]
        if g <= tol * scale:
            return ProbeResult(discrete=False, rank=None, generator=None)
        if len(work) == 1:
            return ProbeResult(discrete=True, rank=1, generator=g)
        reduced = {g}
        for v in work[1:]:
            r = math.fmod(v, g)
            if r > floor and g - r > floor:
                reduced.add(r)
        work = sorted(reduced)
    return ProbeResult(discrete=False, rank=None, generator=None)
