"""Reference values for every benchmark job, computed apart from zetadet.

Nothing here imports zetadet.  Circle quantities come from closed forms in
the monodromy, finite-spectrum quantities are summed directly, spectral zeta
values use mpmath's Hurwitz zeta plus explicit head terms, and monodromy
matrices come from the matrix exponential.  ``check_output`` compares one
CLI output with these values and returns a list of problems (empty when the
output is right).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import mpmath

TAU = 2.0 * math.pi

# Closed-form quantities agree with the program to ~1e-14 relative; the
# checks leave four orders of magnitude of headroom.
REL = 1e-10
# Roundoff floor added to the program's own errorEstimate for zeta values.
ZETA_FLOOR = 1e-10
# Holomorphy of a -> T(a): |dT/d(conj a)| relative to max |T| over the grid.
CR_REL = 1e-5
# Tolerance the variation formulas must meet.
VARIATION_TOL = 1e-6

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# branches


def wrap(angle: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    y = math.fmod(angle, TAU)
    if y <= -math.pi:
        y += TAU
    elif y > math.pi:
        y -= TAU
    return y


def window_log(z: complex, theta: float) -> complex:
    """log z with imaginary part in the open window (theta, theta + 2*pi)."""
    arg = math.atan2(z.imag, z.real)
    arg += TAU * math.ceil((theta - arg) / TAU)
    if arg <= theta:
        arg += TAU
    return complex(math.log(abs(z)), arg)


def reduce_log_param(a: complex) -> complex:
    """a shifted by an integer so that its real part lies in (0, 1]."""
    return a + (1 - math.ceil(a.real))


# ---------------------------------------------------------------------------
# circle models: T = det(I - M), T^RS = |det(I - M)| / sqrt|det M|


def _det(rows) -> complex:
    return complex(mpmath.det(mpmath.matrix(rows)))


def rank1_monodromy(a: complex) -> list[list[complex]]:
    return [[cmath.exp(2j * math.pi * a)]]


def circle_torsion(m) -> complex:
    n = len(m)
    eye_minus = [[(1.0 if i == j else 0.0) - m[i][j] for j in range(n)] for i in range(n)]
    return _det(eye_minus)


def circle_ray_singer(m) -> float:
    return abs(circle_torsion(m)) / math.sqrt(abs(_det(m)))


def circle_im_eta(m) -> float:
    """-sum Im a_j with a_j = log(mu_j) / (2*pi*i), i.e. log|det M| / (2*pi)."""
    return math.log(abs(_det(m))) / TAU


# ---------------------------------------------------------------------------
# lattice {a + n}: determinant, eta, zeta


def lattice_det(a: complex, mu: int, theta: float) -> complex:
    """Det along a cut in the lower (upper) half plane: (1 - e^{+-2 pi i a})^mu."""
    sign = 1.0 if wrap(theta) < 0.0 else -1.0
    return (1.0 - cmath.exp(sign * 2j * math.pi * a)) ** mu


def lattice_eta(a: complex, mu: int) -> complex:
    """(zeta_H(0, a~) - zeta_H(0, 1 - a~)) / 2 = mu * (1/2 - a~)."""
    return mu * (0.5 - reduce_log_param(a))


def _mp_window_log(z, theta: float):
    """window_log at mpmath precision."""
    arg = mpmath.arg(z)
    arg += 2 * mpmath.pi * math.ceil((theta - float(arg)) / TAU)
    if arg <= theta:
        arg += 2 * mpmath.pi
    return mpmath.log(abs(z)) + 1j * arg


def lattice_zeta(a: complex, mu: int, theta: float, s: complex) -> complex:
    """sum_n (a + n)^{-s} with powers taken on the window (theta, theta + 2*pi).

    Points with |n| < head are summed one by one; the two far tails have a
    constant branch winding and are mpmath Hurwitz zeta values.  Everything
    runs at 30 digits, from the exact binary value of ``a``.
    """
    at = mpmath.mpc(a.real, a.imag) + (1 - math.ceil(a.real))
    qm = 1 - at
    th = wrap(theta)
    # winding of the right (direction 0) and left (direction pi) tails
    k_r = math.floor(th / TAU) + 1
    k_l = math.floor((th - math.pi) / TAU) + 1
    gap = min(abs(th), math.pi - abs(th))
    head = 8 + math.ceil(abs(a.imag) / math.tan(0.5 * gap))
    sm = mpmath.mpc(s.real, s.imag)
    total = mpmath.mpc(0)
    for m in range(head):
        for z in (at + m, -(qm + m)):
            total += mpmath.exp(-sm * _mp_window_log(z, th))
    total += mpmath.exp(-2j * mpmath.pi * k_r * sm) * mpmath.zeta(sm, at + head)
    total += mpmath.exp(-1j * mpmath.pi * (2 * k_l + 1) * sm) * mpmath.zeta(sm, qm + head)
    return complex(mu * total)


# ---------------------------------------------------------------------------
# finite spectra


def finite_ldet(eigs, theta: float) -> complex:
    """LDet_theta = sum m * log_theta(lambda)."""
    return sum(m * window_log(v, theta) for v, m in eigs)


def finite_eta(eigs) -> float:
    """(sum_{Re>0} m - sum_{Re<0} m + m_+ - m_-) / 2; axis points have Re == 0."""
    total = 0
    for v, m in eigs:
        if v.real > 0.0:
            total += m
        elif v.real < 0.0:
            total -= m
        elif v.imag > 0.0:
            total += m
        else:
            total -= m
    return 0.5 * total


def finite_zeta0_square(eigs) -> int:
    """zeta(0, D^2) is the total multiplicity."""
    return sum(m for _, m in eigs)


def is_conjugation_closed(eigs) -> bool:
    have = {(v.real, v.imag): m for v, m in eigs}
    return all(have.get((v.real, -v.imag)) == m for v, m in eigs)


# ---------------------------------------------------------------------------
# monodromy of A(x, t) constant in x: Phi(2*pi) = exp(-2*pi*A(t))


def family_matrix(family: dict, t: float):
    """A(t) as a numpy array, for the three family kinds of the CLI."""
    import numpy as np

    kind = family["kind"]
    if kind == "constant":
        return np.array([[_cx(x) for x in row] for row in family["matrix"]], dtype=complex)
    if kind == "rank1":
        return np.array([[1j * (_cx(family["a"]) + t)]], dtype=complex)
    a = [_cx(x) for x in family["a"]]
    rates = [_cx(x) for x in family["rates"]]
    return np.diag([1j * (aj + t * rj) for aj, rj in zip(a, rates)])


def exact_monodromy(family: dict, t: float):
    import scipy.linalg

    return scipy.linalg.expm(-TAU * family_matrix(family, t))


def rk4_error_bound(eigenvalues, cond: float, steps: int) -> float:
    """Bound on |R(z)^N - e^{Nz}| over the eigenvalues z = -h*lambda of h*A.

    R is the RK4 stability polynomial; ``cond`` is the condition number of
    the eigenvector basis (1 for diagonal families).
    """
    h = TAU / steps
    worst = 0.0
    for lam in eigenvalues:
        z = -h * lam
        r = 1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24
        local = abs(cmath.exp(z) - r)
        grow = max(abs(r), abs(cmath.exp(z))) ** (steps - 1)
        worst = max(worst, steps * local * grow)
    return cond * worst


def arg_class(det: complex) -> complex:
    val = cmath.log(det) / (2j * math.pi)
    return complex(val.real - math.floor(val.real), val.imag)


# ---------------------------------------------------------------------------
# output checks


def _cx(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def _close(got: complex, want: complex, rel: float = REL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _checks_pass(out: dict, names) -> list[str]:
    got = {c["name"]: c for c in out.get("checks", [])}
    problems = []
    if set(got) != set(names):
        problems.append(f"checks {sorted(got)} != expected {sorted(names)}")
    for c in got.values():
        if not c["pass"] or not c["residual"] < c["tolerance"]:
            problems.append(f"check {c['name']} failed: {c['residual']} >= {c['tolerance']}")
    return problems


def _model_monodromy(model: dict):
    if model["type"] == "rank1":
        return rank1_monodromy(_cx(model["a"]))
    return [[_cx(x) for x in row] for row in model["matrix"]]


def _circle(out: dict, model: dict) -> list[str]:
    m = _model_monodromy(model)
    res = out["results"]
    problems = []
    t = circle_torsion(m)
    if not _close(_cx(res["torsion"]), t):
        problems.append(f"torsion {res['torsion']} != {t}")
    trs = circle_ray_singer(m)
    if not _close(res["raySinger"], trs):
        problems.append(f"raySinger {res['raySinger']} != {trs}")
    ie = circle_im_eta(m)
    if not _close(res["imEta"], ie):
        problems.append(f"imEta {res['imEta']} != {ie}")
    if "gradedLdet" in res and not _close(cmath.exp(_cx(res["gradedLdet"])), t):
        problems.append("exp(gradedLdet) != torsion")
    return problems


def _scan_rows(text: str, fmt: str) -> tuple[list[dict], list[str]]:
    if fmt == "json":
        out = json.loads(text)
        return out["rows"], ([] if out["results"]["rowCount"] == len(out["rows"]) else ["rowCount"])
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for r in reader:
        rows.append({k: v if k == "status" else (float(v) if v else None) for k, v in r.items()})
    return rows, []


def grid_points(grid: dict) -> list[complex]:
    pts = []
    for i in range(grid["reSteps"]):
        re = grid["reStart"] + (grid["reStop"] - grid["reStart"]) * i / max(1, grid["reSteps"] - 1)
        for j in range(grid["imSteps"]):
            im = grid["imStart"] + (grid["imStop"] - grid["imStart"]) * j / max(1, grid["imSteps"] - 1)
            pts.append(complex(re, im))
    return pts


def check_scan(job: dict, text: str, fmt: str) -> list[str]:
    rows, problems = _scan_rows(text, fmt)
    pts = grid_points(job["params"]["grid"])
    if len(rows) != len(pts):
        return problems + [f"{len(rows)} rows for {len(pts)} grid points"]
    torsions = [circle_torsion(rank1_monodromy(a)) for a in pts]
    t_max = max(abs(t) for t in torsions)
    for a, t, row in zip(pts, torsions, rows):
        m = rank1_monodromy(a)
        if row["status"] != "ok" or not _close(complex(row["a_re"], row["a_im"]), a, 1e-12):
            problems.append(f"row at {a}: status {row['status']}")
            continue
        if not _close(complex(row["t_re"], row["t_im"]), t):
            problems.append(f"row at {a}: T {row['t_re']}+{row['t_im']}j != {t}")
        if not _close(row["t_abs"], abs(t)):
            problems.append(f"row at {a}: |T|")
        if not _close(row["t_rs"], circle_ray_singer(m)):
            problems.append(f"row at {a}: T^RS {row['t_rs']}")
        if not _close(row["im_eta"], circle_im_eta(m)):
            problems.append(f"row at {a}: Im eta {row['im_eta']}")
        if not row["cr_residual"] <= CR_REL * t_max:
            problems.append(f"row at {a}: Cauchy-Riemann residual {row['cr_residual']}")
    return problems


def _check_circle(job, out):
    names = ["graded_det_eta_identity"]
    if job["command"] == "verify":
        names.append("torsion_ray_singer")
    return _checks_pass(out, names) + _circle(out, job["model"])


def _check_finite(job, out):
    res = out["results"]
    theta = job.get("theta", -math.pi / 4.0)
    eigs = [(_cx(e), e.get("multiplicity", 1)) for e in job["model"]["eigenvalues"]]
    want = {
        "lhs": finite_ldet(eigs, theta),
        "eta": finite_eta(eigs),
        "zetaZeroSquare": finite_zeta0_square(eigs),
    }
    scale = 1.0 + sum(m * abs(window_log(v, theta)) for v, m in eigs)
    names = ["det_eta_identity", "det_eta_identity_upper"]
    if is_conjugation_closed(eigs):
        names.append("symmetric_factorization")
    problems = _checks_pass(out, names)
    for key, value in want.items():
        if abs(_cx(res[key]) - value) > REL * scale:
            problems.append(f"{key} {res[key]} != {value}")
    return problems


def _lattice(job):
    model = job["model"]
    return _cx(model["a"]), model.get("mu", 1), job.get("theta", -math.pi / 4.0)


def _check_lattice_verify(job, out):
    res = out["results"]
    a, mu, theta = _lattice(job)
    names = ["det_eta_identity", "det_eta_identity_upper"]
    if a.imag == 0.0:
        names.append("symmetric_factorization")
    problems = _checks_pass(out, names)
    if not _close(cmath.exp(_cx(res["lhs"])), lattice_det(a, mu, theta)):
        problems.append(f"exp(lhs) != {lattice_det(a, mu, theta)}")
    if not _close(_cx(res["eta"]), lattice_eta(a, mu)):
        problems.append(f"eta {res['eta']} != {lattice_eta(a, mu)}")
    if abs(_cx(res["zetaZeroSquare"])) > REL:
        problems.append(f"zetaZeroSquare {res['zetaZeroSquare']} != 0")
    return problems


def _check_lattice_det(job, out):
    res = out["results"]
    want = lattice_det(*_lattice(job))
    if not _close(_cx(res["det"]), want) or not _close(cmath.exp(_cx(res["ldet"])), want):
        return [f"det {res['det']} != {want}"]
    return []


def _check_lattice_eta(job, out):
    a, mu, _ = _lattice(job)
    want = lattice_eta(a, mu)
    got = out["results"]["eta"]
    return [] if _close(_cx(got), want) else [f"eta {got} != {want}"]


def _check_lattice_zeta(job, out):
    res = out["results"]
    a, mu, theta = _lattice(job)
    s = _cx(job["params"]["s"])
    want = lattice_zeta(a, mu, theta, s)
    got = _cx(res["value"])
    allowed = res["errorEstimate"] + ZETA_FLOOR * max(1.0, abs(want))
    if not abs(got - want) <= allowed:
        err = abs(got - want)
        return [f"zeta at s={s}: {got} != {want} (error {err:.3g}, allowed {allowed:.3g})"]
    return []


def _check_monodromy(job, out):
    import numpy as np

    p = job["params"]
    t = p.get("t", 0.0)
    fam = p["family"]
    want = exact_monodromy(fam, t)
    got = np.array([[_cx(x) for x in row] for row in out["results"]["monodromy"]])
    lam, vec = np.linalg.eig(family_matrix(fam, t))
    cond = float(np.linalg.cond(vec)) if fam["kind"] == "constant" else 1.0
    tol = 4.0 * rk4_error_bound(lam, cond, p["steps"]) + 1e-12 * np.abs(want).max()
    err = float(np.abs(got - want).max())
    problems = [] if err <= tol else [f"monodromy error {err:.3g} > RK4 bound {tol:.3g}"]
    ac_want = arg_class(complex(np.linalg.det(want)))
    ac_tol = tol * float(np.abs(np.linalg.inv(want)).sum()) / TAU + 1e-12
    d = _cx(out["results"]["argClass"]) - ac_want
    if abs(complex(d.real - round(d.real), d.imag)) > ac_tol:
        problems.append(f"argClass {out['results']['argClass']} != {ac_want}")
    return problems


def _check_variation(job, out):
    problems = _checks_pass(out, ["eta_variation", "arg_derivative"])
    for c in out["checks"]:
        if c["tolerance"] != VARIATION_TOL:
            problems.append(f"{c['name']} tolerance {c['tolerance']} != {VARIATION_TOL}")
    return problems


_CHECKS = {
    ("torsion", "rank1"): _check_circle,
    ("torsion", "monodromy"): _check_circle,
    ("verify", "rank1"): _check_circle,
    ("verify", "monodromy"): _check_circle,
    ("verify", "finite"): _check_finite,
    ("verify", "lattice"): _check_lattice_verify,
    ("det", "lattice"): _check_lattice_det,
    ("eta", "lattice"): _check_lattice_eta,
    ("zeta", "lattice"): _check_lattice_zeta,
    ("monodromy", None): _check_monodromy,
    ("variation", None): _check_variation,
}


def check_output(job: dict, text: str, fmt: str = "json") -> list[str]:
    """Problems found in one CLI output for the job config ``job``."""
    cmd = job["command"]
    if cmd == "scan":
        return check_scan(job, text, fmt)
    check = _CHECKS.get((cmd, (job.get("model") or {}).get("type")))
    if check is None:
        return [f"no oracle for command {cmd} on this model"]
    return check(job, json.loads(text))
