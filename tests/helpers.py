"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import cmath
import math
import random

from zetadet import (
    DirectSum,
    Eigenvalue,
    Finite,
    HermQuadLattice,
    Lattice,
    QuadLattice,
    Restricted,
)
from zetadet.complexcut import ang_dist, phase

TWO_PI = 2.0 * math.pi


def direct_hurwitz_sum(s: complex, q: complex, terms: int = 200_000) -> complex:
    """Brute-force partial sum of sum (n+q)^{-s}, plus an integral tail bound.

    Valid oracle for Re(s) > 2; the tail is bounded by the integral of
    (x+q)^{-Re s}, which is added as a midpoint estimate.  Compensated
    summation keeps the oracle itself at machine accuracy.
    """
    parts = [(n + q) ** (-s) for n in range(terms)]
    # midpoint tail correction: integral from terms-1/2 of (x+q)^{-s}
    w = q + terms - 0.5
    parts.append(w ** (1 - s) / (s - 1))
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


def random_det_eta_spectrum(rng: random.Random, theta: float, margin: float = 0.05):
    """Random finite spectrum in the annulus 0.5 <= |l| <= 3 obeying the
    sector hypotheses for the cut ``theta`` (and its upper-plane mirror)."""
    values = {}
    n_vals = rng.randint(1, 5)
    for _ in range(n_vals):
        r = rng.uniform(0.5, 3.0)
        if rng.random() < 0.25:
            # purely imaginary eigenvalues are admissible and exercise m_+/-
            arg = math.pi / 2 if rng.random() < 0.5 else -math.pi / 2
        elif rng.random() < 0.5:
            arg = rng.uniform(theta + margin, math.pi / 2 - margin)
        else:
            arg = rng.uniform(theta + math.pi + margin, 3 * math.pi / 2 - margin)
        v = r * cmath.exp(1j * arg)
        key = (round(v.real, 9), round(v.imag, 9))
        values[key] = (v, rng.randint(1, 3))
    return Finite(tuple(Eigenvalue(v, m) for v, m in values.values()))


def random_symmetric_spectrum(rng: random.Random, m_minus: int):
    """Symmetric-about-the-real-axis spectrum with the requested m_-.

    Conjugate pairs plus real eigenvalues, and ``m_minus`` imaginary pairs.
    All directions stay clear of the cut at -pi/4 and the hypothesis sectors
    for it.
    """
    evs = []
    used = set()

    def push(v, m):
        key = (round(v.real, 9), round(v.imag, 9))
        if key in used:
            return False
        used.add(key)
        evs.append(Eigenvalue(v, m))
        return True

    for _ in range(rng.randint(1, 3)):
        r = rng.uniform(0.5, 3.0)
        arg = rng.uniform(0.1, math.pi / 2 - 0.1)
        m = rng.randint(1, 2)
        v = r * cmath.exp(1j * arg)
        if push(v, m):
            push(v.conjugate(), m)
    for _ in range(rng.randint(0, 2)):
        sign = 1 if rng.random() < 0.5 else -1
        push(complex(sign * rng.uniform(0.5, 3.0), 0.0), rng.randint(1, 2))
    for _ in range(m_minus):
        r = rng.uniform(0.5, 3.0)
        while not push(complex(0.0, r), 1):
            r = rng.uniform(0.5, 3.0)
        push(complex(0.0, -r), 1)
    if not evs:
        push(complex(rng.uniform(0.5, 3.0), 0.0), 1)
    return Finite(tuple(evs))


def pick_agmon_angle(
    spec, lo: float, hi: float, radius: float, min_gap: float = 1e-3
) -> float:
    """Angle in (lo, hi) maximizing the distance to the eigenvalue directions.

    Only eigenvalues with modulus at most ``radius`` are considered.
    """
    dirs = sorted(
        cmath.phase(v) for v, m in spec.points_within(radius) if m > 0
    )
    best, best_gap = None, 0.0
    n_cand = 41
    for i in range(1, n_cand):
        cand = lo + (hi - lo) * i / n_cand
        gap = min((ang_dist(cand, d) for d in dirs), default=math.pi)
        gap = min(gap, *(ang_dist(cand, t) for t in spec.tail_directions())) if spec.tail_directions() else gap
        if gap > best_gap:
            best, best_gap = cand, gap
    if best is None or best_gap < min_gap:
        raise AssertionError("could not find an Agmon angle in the window")
    return best


def tail_angle_bound(spec, radius: float) -> float:
    """Largest angle between a tail direction and an eigenvalue beyond ``radius``.

    Valid for radii beyond every finite eigenvalue: a + n with |a + n| >= R is
    within asin(|Im a| / R) of the real axis, and its square within twice the
    angle of its root.
    """
    if isinstance(spec, DirectSum):
        return max(tail_angle_bound(p, radius) for p in spec.parts)
    if isinstance(spec, Restricted):
        return tail_angle_bound(spec.base, radius)
    if isinstance(spec, Lattice):
        return math.asin(min(1.0, abs(spec.a.imag) / radius))
    if isinstance(spec, QuadLattice):
        return 2.0 * math.asin(min(1.0, abs(spec.a.imag) / math.sqrt(radius)))
    # HermQuadLattice lies on its tail direction; Finite ends inside the radius
    assert isinstance(spec, (Finite, HermQuadLattice))
    return 0.0


def clear_radius(spec, clearance: float, start: float = 16.0, cap: float = 1e5):
    """A radius beyond which every eigenvalue is within ``clearance`` of a tail.

    None when that radius exceeds ``cap``.
    """
    radius = start
    while tail_angle_bound(spec, radius) >= clearance:
        radius *= 2.0
        if radius > cap:
            return None
    return radius


def brute_is_agmon(spec, theta: float, epsilon: float, radius: float) -> bool:
    """Exhaustive Agmon test; exact when the tails clear the cut at ``radius``."""
    if any(ang_dist(theta, d) <= epsilon for d in spec.tail_directions()):
        return False
    return all(
        ang_dist(phase(v), theta) > epsilon
        for v, m in spec.points_within(radius)
        if m > 0
    )


def random_invertible(rng: random.Random, n: int, max_cond: float = 50.0):
    """Random well-conditioned invertible matrix."""
    import numpy as np

    while True:
        g = np.array(
            [
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if np.linalg.cond(g) < max_cond:
            return g
