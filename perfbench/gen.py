"""Seeded job generator for the benchmark workloads.

A workload is a *round*: a fixed list of job slots.  The seed moves each job
inside its slot (which eigenvalues, which rectangle of the a-plane, which
log parameters), while the slot fixes what sets the job's cost (spectrum
size, grid shape, |Im a| band, matrix size, RK4 steps).  So every seed gives
a round of about the same cost and the same number of jobs of each kind.

Every drawn job is checked against the hypotheses of the method before it is
kept, and redrawn otherwise:

* no eigenvalue in the sectors (-pi/2, theta] or (pi/2, theta + pi] of a
  determinant/eta identity at the job's cut theta, with a margin;
* lattice and grid parameters at least ``INT_MARGIN`` away from the integers;
* monodromy eigenvalues exp(2*pi*i*a) with a at least ``INT_MARGIN`` away
  from the integers, so they stay away from 1;
* cuts at least ``CUT_MARGIN`` away from the lattice tail directions 0, pi.

Only ``KNOWN_FAULT_ZETA`` jobs do not depend on the seed: they sit where the
Hurwitz kernel is known to be wrong and are counted as failed.

Run ``python3 perfbench/gen.py --workload W --seed N --out DIR`` to write a
round's configs as files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
from dataclasses import dataclass

TAU = 2.0 * math.pi

INT_MARGIN = 0.08      # distance of log parameters / grid points to Z
SECTOR_MARGIN = 0.03   # angular distance of eigenvalues to hypothesis sectors
AXIS_MARGIN = 0.01     # angular distance of off-axis eigenvalues to the imaginary axis
CUT_MARGIN = 0.25      # angular distance of cuts to the lattice tails
MAX_DRAWS = 10_000

# Zeta jobs on the Euler-Maclaurin kernel's known bad band, Re s <= -8.
KNOWN_FAULT_ZETA = ((0.3, -12.0), (0.3, -8.0))
# (Re s, Im s) ranges of the seeded zeta jobs.  Below Re s = -0.5 the
# kernel's error already exceeds its estimate plus the oracle's roundoff
# floor for some |Im s| >= 0.5 (by 20x at s = -2 + 2i), so a job there would
# fail on some seeds only; negative s is kept on the real axis, where the
# error stays 15x below the floor down to s = -2.
ZETA_S_BOXES = (((-0.5, 3.0), (-2.0, 2.0)),) * 4 + (((-2.0, -0.5), (0.0, 0.0)),) * 2


class HypothesisError(ValueError):
    """A drawn job violates a hypothesis of the method it exercises."""


@dataclass(frozen=True)
class Job:
    config: dict
    fmt: str = "json"
    known_fault: bool = False

    @property
    def command(self) -> str:
        return self.config["command"]


# ---------------------------------------------------------------------------
# geometry


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _direction(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _ang_dist(a: float, b: float) -> float:
    d = math.fmod(a - b, TAU) % TAU
    return min(d, TAU - d)


def _in_arc(d: float, lo: float, hi: float) -> bool:
    """d in the half-open arc (lo, hi], directions taken mod 2*pi."""
    t = lo + (d - lo) % TAU
    return lo < t <= hi


def dist_to_integers(a: complex) -> float:
    return abs(a - round(a.real))


def check_sectors(values, theta: float, margin: float = SECTOR_MARGIN):
    """No value in (-pi/2, theta] or (pi/2, theta + pi], nor within margin of them."""
    for v in values:
        d = _direction(v)
        for lo, hi in ((-math.pi / 2, theta), (math.pi / 2, theta + math.pi)):
            if _in_arc(d, lo, hi) or _ang_dist(d, hi) < margin:
                raise HypothesisError(f"eigenvalue {v} in the sector ({lo:.3f}, {hi:.3f}]")
            if _ang_dist(d, lo) < margin and not _is_axis(v):
                raise HypothesisError(f"eigenvalue {v} at the edge of ({lo:.3f}, {hi:.3f}]")


def _is_axis(v: complex) -> bool:
    return v.real == 0.0


def check_acyclic(a: complex):
    if not math.isfinite(a.real) or not math.isfinite(a.imag):
        raise HypothesisError(f"parameter {a} is not finite")
    if dist_to_integers(a) < INT_MARGIN:
        raise HypothesisError(f"parameter {a} is near an integer")


def lattice_points(a: complex, reach: int = 4):
    """The lattice points a + n nearest the origin, where sectors can be hit."""
    n0 = -round(a.real)
    return [a + n for n in range(n0 - reach, n0 + reach + 1)]


def check_lattice_cut(a: complex, theta: float):
    """theta is an Agmon cut for {a + n}: off the tails and off every point."""
    check_acyclic(a)
    if min(_ang_dist(theta, 0.0), _ang_dist(theta, math.pi)) < CUT_MARGIN:
        raise HypothesisError(f"cut {theta} near a lattice tail")
    for v in lattice_points(a, 40):
        if _ang_dist(_direction(v), theta) < SECTOR_MARGIN:
            raise HypothesisError(f"lattice point {v} near the cut {theta}")


def check_lattice_verify(a: complex, theta: float):
    """The det/eta identity hypotheses for {a + n} at theta in (-pi/2, 0)."""
    check_lattice_cut(a, theta)
    # beyond reach the points are within atan(|Im a| / 4) of the tails 0, pi,
    # which lie outside both sectors once theta is CUT_MARGIN from 0
    check_sectors(lattice_points(a), theta)


def check_finite(eigs, theta: float):
    check_sectors([v for v, _ in eigs], theta)
    for v, _ in eigs:
        if not _is_axis(v) and min(_ang_dist(_direction(v), s * math.pi / 2) for s in (1, -1)) < AXIS_MARGIN:
            raise HypothesisError(f"eigenvalue {v} too close to the imaginary axis")
    keys = {(round(v.real, 9), round(v.imag, 9)) for v, _ in eigs}
    if len(keys) != len(eigs):
        raise HypothesisError("eigenvalues are not distinct")


def _draw(sample, check):
    for _ in range(MAX_DRAWS):
        value = sample()
        try:
            check(value)
        except HypothesisError:
            continue
        return value
    raise RuntimeError("no admissible draw; the sampling ranges are inconsistent")


# ---------------------------------------------------------------------------
# scan_grid

# The a-plane region of the scan jobs is cut into cells: RE_COLUMNS x IM_BANDS,
# one 2 x 2 job per cell, placed by the seed inside its cell.  The row cost
# depends on a in steps (tail buffer lengths, Hurwitz series lengths), so one
# job per cell keeps the round's cost nearly the same for every seed.  Three
# more jobs lie on the real line, where the tails need no Hurwitz calls.
RE_COLUMNS = 3
IM_BANDS = 14
IM_MAX = 1.5
SCAN_CELL_FILL = (0.15, 0.4)   # rectangle side as a share of the cell side


def _scan_job(rng: random.Random, re_cell, im_cell, re_n, im_n, fmt) -> Job:
    def span(lo, hi):
        if lo == hi:
            return lo, hi
        width = (hi - lo) * rng.uniform(*SCAN_CELL_FILL)
        start = rng.uniform(lo, hi - width)
        return start, start + width

    re0, re1 = span(*re_cell)
    im0, im1 = span(*im_cell)
    for a in (complex(re0, im0), complex(re1, im1)):
        check_acyclic(a)
    grid = {"reStart": re0, "reStop": re1, "reSteps": re_n,
            "imStart": im0, "imStop": im1, "imSteps": im_n}
    return Job({"schemaVersion": 1, "command": "scan", "params": {"grid": grid, "h": 1e-4}}, fmt)


def scan_round(rng: random.Random) -> list[Job]:
    width = (1.0 - 2 * INT_MARGIN) / RE_COLUMNS
    cols = [(INT_MARGIN + i * width, INT_MARGIN + (i + 1) * width) for i in range(RE_COLUMNS)]
    band = 2 * IM_MAX / IM_BANDS
    bands = [(-IM_MAX + j * band, -IM_MAX + (j + 1) * band) for j in range(IM_BANDS)]
    # slot 0, the set-up job, is a small real-line job
    slots = [(col, (0.0, 0.0), 2, 1) for col in cols]
    slots += [(col, b, 2, 2) for b in bands for col in cols]
    return [
        _scan_job(rng, re_cell, im_cell, re_n, im_n, "csv" if i % 3 == 1 else "json")
        for i, (re_cell, im_cell, re_n, im_n) in enumerate(slots)
    ]


# ---------------------------------------------------------------------------
# finite_verify

# 25 sizes from 8 to 256 in steps of about 15%, every other one symmetric
FINITE_SIZES = tuple(round(8 * 32 ** (i / 24)) for i in range(25))
R_MIN, R_MAX = 0.25, 4.0


def _radius(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(R_MIN), math.log(R_MAX)))


def _polar(rng: random.Random, direction: float) -> complex:
    r = _radius(rng)
    return complex(r * math.cos(direction), r * math.sin(direction))


def _mult(rng: random.Random) -> int:
    u = rng.random()
    return 1 if u < 0.8 else (2 if u < 0.95 else 3)


def _finite_asym(rng: random.Random, size: int, theta: float):
    """Directions anywhere in (theta, pi/2] or (theta - pi, -pi/2]."""
    width = math.pi / 2 - theta - 2 * SECTOR_MARGIN

    def one():
        u = rng.uniform(0.0, 2 * width)
        return _polar(rng, theta + SECTOR_MARGIN + (u if u < width else u - width - math.pi))

    eigs = []
    for _ in range(size):
        v = _draw(one, lambda v: check_finite(eigs + [(v, 1)], theta))
        eigs.append((v, _mult(rng)))
    return eigs


def _finite_sym(rng: random.Random, size: int, theta: float):
    """Conjugate pairs with directions within |theta| of the real axis, plus
    real eigenvalues and pairs on the imaginary axis."""
    half = -theta - SECTOR_MARGIN
    eigs = []
    n_axis = 1 if size >= 18 else 0
    n_real = 2 + size % 2
    n_pairs = (size - n_real - 2 * n_axis) // 2
    for _ in range(n_axis):
        r, m = _radius(rng), _mult(rng)
        eigs += [(complex(0.0, r), m), (complex(0.0, -r), m)]
    for _ in range(n_real):
        sign = rng.choice((1.0, -1.0))
        eigs.append((complex(sign * _radius(rng), 0.0), _mult(rng)))
    for _ in range(n_pairs):
        def one():
            d = rng.uniform(SECTOR_MARGIN, half)
            return _polar(rng, d if rng.random() < 0.5 else math.pi - d)

        v = _draw(one, lambda v: check_finite(eigs + [(v, 1), (v.conjugate(), 1)], theta))
        m = _mult(rng)
        eigs += [(v, m), (v.conjugate(), m)]
    check_finite(eigs, theta)
    return eigs


def finite_round(rng: random.Random) -> list[Job]:
    jobs = []
    for i, size in enumerate(FINITE_SIZES):
        theta = rng.uniform(-1.3, -0.3)
        eigs = (_finite_sym if i % 2 else _finite_asym)(rng, size, theta)
        model = {
            "type": "finite",
            "eigenvalues": [dict(_c(v), multiplicity=m) for v, m in eigs],
        }
        jobs.append(Job({"schemaVersion": 1, "command": "verify", "theta": theta, "model": model}))
    return jobs


# ---------------------------------------------------------------------------
# model_jobs


def _log_param(rng: random.Random, im_band, shift: bool = False) -> complex:
    def sample():
        a = complex(rng.uniform(INT_MARGIN, 1 - INT_MARGIN), rng.uniform(*im_band))
        return a + rng.randint(-2, 2) if shift else a

    return _draw(sample, check_acyclic)


def _conjugated(rng: random.Random, values):
    """P diag(values) P^-1 with a well-conditioned P = I + 0.3 * noise, as JSON."""
    import numpy as np

    dim = len(values)
    p = np.eye(dim) + 0.3 * np.array(
        [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(dim)]
    )
    m = p @ np.diag(values) @ np.linalg.inv(p)
    return [[_c(complex(x)) for x in row] for row in m]


def _monodromy_matrix(rng: random.Random, dim: int):
    """Monodromy with eigenvalues exp(2*pi*i*a_j), the a_j apart from Z and each other."""
    def sample():
        return [_log_param(rng, (-0.6, 0.6)) for _ in range(dim)]

    def check(a_vals):
        for i in range(dim):
            for j in range(i):
                if abs(a_vals[i] - a_vals[j]) < 0.05:
                    raise HypothesisError("monodromy eigenvalues too close")

    a_vals = _draw(sample, check)
    return _conjugated(rng, [cmath.exp(2j * math.pi * a) for a in a_vals])


def _lattice_job(rng: random.Random, command: str, theta_range, real: bool = False, s_box=None) -> Job:
    mu = rng.choice((1, 1, 2))

    def sample():
        a = complex(rng.uniform(INT_MARGIN, 1 - INT_MARGIN), 0.0 if real else rng.uniform(-0.8, 0.8))
        return a + rng.randint(-2, 2), rng.uniform(*theta_range)

    check = check_lattice_verify if command == "verify" else check_lattice_cut
    a, theta = _draw(sample, lambda at: check(*at))
    cfg = {"schemaVersion": 1, "command": command, "theta": theta,
           "model": {"type": "lattice", "a": _c(a), "mu": mu}}
    if command == "zeta":
        def s_sample():
            (re_lo, re_hi), (im_lo, im_hi) = s_box
            return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))

        def s_check(s):
            if abs(s - 1.0) < 0.2:
                raise HypothesisError("s near the pole at 1")

        cfg["params"] = {"s": _c(_draw(s_sample, s_check))}
    return Job(cfg)


def _family(rng: random.Random, kind: str, dim: int = 1) -> dict:
    if kind == "rank1":
        return {"kind": "rank1", "a": _c(_log_param(rng, (-0.4, 0.4)))}
    if kind == "diagonal":
        a = [_log_param(rng, (-0.4, 0.4)) for _ in range(dim)]
        rates = [complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2)) for _ in range(dim)]
        return {"kind": "diagonal", "a": [_c(x) for x in a], "rates": [_c(x) for x in rates]}
    lam = [1j * _log_param(rng, (-0.4, 0.4)) for _ in range(dim)]
    return {"kind": "constant", "matrix": _conjugated(rng, lam)}


def model_round(rng: random.Random) -> list[Job]:
    jobs = []

    def circle(command, model):
        jobs.append(Job({"schemaVersion": 1, "command": command, "model": model}))

    # slot 0 is the set-up job
    for command in ("torsion", "verify"):
        for band in ((-0.3, 0.3), (0.3, 1.0), (-1.0, -0.3)):
            circle(command, {"type": "rank1", "a": _c(_log_param(rng, band, shift=True))})
        for dim in (2, 2, 3):
            circle(command, {"type": "monodromy", "matrix": _monodromy_matrix(rng, dim)})
    lower = (-math.pi + CUT_MARGIN, -CUT_MARGIN)
    upper = (CUT_MARGIN, math.pi - CUT_MARGIN)
    verify_cuts = (-1.3, -0.3)
    jobs += [_lattice_job(rng, "verify", verify_cuts) for _ in range(3)]
    jobs.append(_lattice_job(rng, "verify", verify_cuts, real=True))
    jobs += [_lattice_job(rng, "det", lower), _lattice_job(rng, "det", lower), _lattice_job(rng, "det", upper)]
    jobs += [_lattice_job(rng, "eta", lower), _lattice_job(rng, "eta", upper)]
    for cuts, s_box in zip((lower, lower, upper, lower, upper, lower), ZETA_S_BOXES):
        jobs.append(_lattice_job(rng, "zeta", cuts, s_box=s_box))
    for a, s in KNOWN_FAULT_ZETA:
        cfg = {"schemaVersion": 1, "command": "zeta",
               "model": {"type": "lattice", "a": _c(complex(a))}, "params": {"s": _c(complex(s))}}
        jobs.append(Job(cfg, known_fault=True))
    for kind, dim, steps in (("rank1", 1, 128), ("diagonal", 2, 256), ("constant", 2, 256), ("constant", 3, 192)):
        params = {"family": _family(rng, kind, dim), "steps": steps, "t": rng.uniform(-0.2, 0.2)}
        jobs.append(Job({"schemaVersion": 1, "command": "monodromy", "params": params}))
    for kind in ("affine", "sine"):
        a0 = _log_param(rng, (-0.4, 0.4))
        coeff = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.2, 0.2))
        path = {"kind": kind, "a0": _c(a0), ("rate" if kind == "affine" else "amp"): _c(coeff)}
        params = {"path": path, "dt": 1e-4, "t": 0.0}
        jobs.append(Job({"schemaVersion": 1, "command": "variation", "params": params}))
    return jobs


ROUNDS = {"scan_grid": scan_round, "finite_verify": finite_round, "model_jobs": model_round}
WORKLOADS = tuple(ROUNDS)


def make_round(workload: str, seed: int) -> list[Job]:
    """The round of jobs for ``workload`` under ``seed``; slot 0 is the set-up job."""
    return ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def main(argv=None):
    parser = argparse.ArgumentParser(description="write one round of benchmark job configs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory for the config files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for i, job in enumerate(make_round(args.workload, args.seed)):
        path = os.path.join(args.out, f"{i:03d}_{job.command}.json")
        with open(path, "w") as fh:
            json.dump(job.config, fh, indent=1)
        note = " (known fault)" if job.known_fault else ""
        print(f"{path}  --format {job.fmt}{note}")


if __name__ == "__main__":
    main()
