"""Integer-matrix side of the compact quotient construction.

A compact quotient of a solvable model needs a unimodular integer matrix
conjugate to a point on a one-parameter subgroup, plus translation parts
that generate a discrete subgroup of the line. This module provides the
exact characteristic polynomial, an irreducibility test over the
integers, classification of eigenvalue moduli, the conjugacy solver, and
a numeric discreteness probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .linalg import charpoly_exact, exact_det
from .scalars import as_fraction, finite_float


def _as_int(x, where: str) -> int:
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


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order."""
    n = abs(n)
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def _primitive(f: list[int]) -> list[int]:
    content = math.gcd(*f) or 1
    return [c // content for c in f]


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


def _has_root(f: list[int], p: int, q: int) -> bool:
    """True when p/q is a root of f: Horner on sum f_k p^k q^(deg-k)."""
    acc, qk = 0, 1
    for c in reversed(f):
        acc, qk = acc * p + c * qk, qk * q
    return acc == 0


def is_irreducible_over_Z(coeffs: Sequence[int]) -> bool:
    """Irreducibility in Z[X] up to units, implemented through degree 8.

    Linear factors are found by the rational root test; higher-degree
    factors by reassembling subsets of the numeric roots into candidate
    integer factors, each candidate confirmed by exact division over Q. Exact
    division rules out a false "reducible" verdict, but not a false
    "irreducible" one: a factor is missed when rounding its numeric roots
    does not give its integer coefficients. A repeated factor is found
    exactly, as a gcd of f and f' of positive degree over Q.
    """
    cs = _strip(coeffs)
    deg = len(cs) - 1
    if deg == 0:
        return False
    if deg > 8:
        raise InputError("irreducibility test is implemented through degree 8")
    cs = _primitive(cs)
    if cs[0] == 0:
        return deg == 1
    if deg == 1:
        return True
    if len(_gcd_with_derivative(cs)) > 1:
        return False
    for q in divisors(cs[-1]):
        for p in divisors(cs[0]):
            if _has_root(cs, p, q) or _has_root(cs, -p, q):
                return False
    if deg <= 3:
        return True
    roots = np.roots([float(c) for c in reversed(cs)])
    lead = cs[-1]
    for k in range(2, deg // 2 + 1):
        for subset in combinations(range(deg), k):
            chosen = [roots[i] for i in subset]
            # elementary symmetric functions give the monic factor over C
            esym = np.poly(chosen)  # highest degree first, leading 1
            for d in divisors(lead):
                for sign in (1, -1):
                    cand_f = sign * d * esym
                    if np.max(np.abs(cand_f.imag)) > 1e-6:
                        continue
                    cand = [int(round(float(c))) for c in cand_f.real[::-1]]
                    if np.max(np.abs(np.array(cand, dtype=np.float64)
                                     - cand_f.real[::-1])) > 1e-6:
                        continue
                    # a proper factor over Q makes f reducible over Z too
                    # (Gauss's lemma)
                    if not any(_pseudo_divide(cs, cand)[1]):
                        return False
    return True


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
    """C^-1 A C = exp(t0 * generator), generator in block form."""

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
    cols: list[np.ndarray] = []
    for _, vec in sorted(real_items, key=lambda p: -p[0]):
        cols.append(vec)
    for _, vi, vr in sorted(rot_items, key=lambda p: -p[0]):
        cols.append(vi)
        cols.append(vr)
    c = np.stack(cols, axis=1)
    if np.linalg.matrix_rank(c, tol=1e-9 * max(1.0, float(np.max(np.abs(c))))) < n:
        return None  # defective: eigenvectors do not fill the space
    logs = sorted((lg for lg, _ in real_items), reverse=True)
    angles = sorted((mu for mu, _, _ in rot_items), reverse=True)
    if logs and logs[0] > 0:
        t0 = logs[0]
    elif angles:
        t0 = angles[0]
    else:
        t0 = 1.0  # identity-like: any time step works
    gen = np.zeros((n, n))
    pos = 0
    for lg, _ in sorted(real_items, key=lambda p: -p[0]):
        gen[pos, pos] = lg / t0
        pos += 1
    for mu, _, _ in sorted(rot_items, key=lambda p: -p[0]):
        gen[pos, pos + 1] = -mu / t0
        gen[pos + 1, pos] = mu / t0
        pos += 2
    return ConjugacySolution(t0=t0, generator=gen, conjugator=c)


def verify_conjugacy(m: Sequence, solution: ConjugacySolution) -> float:
    """Largest entry of C^-1 A C - exp(t0 * generator)."""
    import scipy.linalg  # deferred: importing it roughly doubles a cold CLI start

    arr = _as_int_matrix(m).astype(np.float64)
    c = solution.conjugator
    target = scipy.linalg.expm(solution.t0 * solution.generator)
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
        if len(work) == 1:
            g = work[0]
            if g <= tol * scale:
                return ProbeResult(discrete=False, rank=None, generator=None)
            return ProbeResult(discrete=True, rank=1, generator=g)
        g = work[0]
        if g <= tol * scale:
            return ProbeResult(discrete=False, rank=None, generator=None)
        reduced = {g}
        for v in work[1:]:
            r = math.fmod(v, g)
            if r > floor and g - r > floor:
                reduced.add(r)
        work = sorted(reduced)
    return ProbeResult(discrete=False, rank=None, generator=None)
