"""Acceptance suite.

Each test prints one `[PASS]`/`[FAIL]` line per criterion (run with `-s` to
see them live) and asserts the stated tolerance.  Tolerances are pinned here
from the named constants in ``zetadet.config``, and from the module constants
below for the thresholds only these criteria use.
"""

import cmath
import math
import random
import time

import numpy as np

import zetadet as zd
from zetadet.config import DEFAULT_TOLERANCES as TOL

from helpers import (
    direct_hurwitz_sum,
    pick_agmon_angle,
    random_det_eta_spectrum,
    random_invertible,
    random_symmetric_spectrum,
)

PI = math.pi
# acceptance thresholds of the criteria alone; the library reads none of them
CLOSED_FORM_REL = 1e-8   # circle closed form, relative
KERNEL_ACCURACY = 1e-10  # Hurwitz zeta kernel against its references
CR_RESIDUAL_REL = 1e-5   # Cauchy-Riemann residual, relative to max|T|


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _real_grid():
    return [k / 10 for k in range(1, 10)]


def _complex_grid():
    return [
        complex(re, im)
        for re in _real_grid()
        for im in (-0.3, 0.0, 0.3)
    ]


def test_criterion_01_closed_form_torsion():
    points = _real_grid() + [0.25 + 0.2j, 0.25 - 0.2j, 0.5 + 0.3j, 0.5 - 0.3j]
    started = time.perf_counter()
    worst = 0.0
    for a in points:
        t = zd.refined_torsion(zd.build_rank1(a)).torsion
        closed = 1 - cmath.exp(2j * PI * a)
        worst = max(worst, abs(t - closed) / (1 + abs(t)))
    elapsed = time.perf_counter() - started
    ok = worst < CLOSED_FORM_REL and elapsed < 1.0
    _criterion(
        "1 closed-form torsion T = 1 - e^{2*pi*i*a}",
        ok,
        f"worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_phase_modulus_factorization():
    worst = 0.0
    for k in range(1, 20):
        a = k / 20
        t = zd.refined_torsion(zd.build_rank1(a)).torsion
        factored = 2 * math.sin(PI * a) * cmath.exp(1j * PI * (2 * a - 1) / 2)
        worst = max(worst, abs(t - factored))
    _criterion(
        "2 factorization T = 2 sin(pi a) e^{i pi (2a-1)/2}",
        worst < CLOSED_FORM_REL,
        f"worst dev {worst:.2e}",
    )


def test_criterion_03_eta_invariant():
    worst = 0.0
    for a in _complex_grid():
        eta = zd.eta_invariant(zd.Lattice(a))
        worst = max(worst, abs(eta - (1 - 2 * a) / 2))
    _criterion(
        "3 eta invariant eta(a) = (1 - 2a)/2",
        worst < CLOSED_FORM_REL,
        f"worst dev {worst:.2e}",
    )


def _det_eta_suite(verify):
    rng = random.Random(20_240_601)
    worst = 0.0
    for _ in range(200):
        spec = random_det_eta_spectrum(rng, -PI / 4)
        worst = max(worst, verify(spec, -PI / 4).residual)
    for a in _complex_grid():
        spec = zd.Lattice(a)
        theta = zd.pick_det_eta_cut(spec)
        worst = max(worst, verify(spec, theta).residual)
    return worst


def test_criterion_04_det_eta_identity():
    started = time.perf_counter()
    worst = _det_eta_suite(zd.verify_det_eta)
    elapsed = time.perf_counter() - started
    ok = worst < TOL.identity_residual and elapsed < 10.0
    _criterion(
        "4 determinant/eta identity (lower cut)",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_det_eta_identity_upper():
    worst = _det_eta_suite(zd.verify_det_eta_upper)
    _criterion(
        "5 determinant/eta identity (upper cut)",
        worst < TOL.identity_residual,
        f"worst residual {worst:.2e}",
    )


def test_criterion_06_angle_independence():
    rng = random.Random(606)
    worst_det = 0.0
    worst_k = 0.0
    for _ in range(50):
        spec = random_det_eta_spectrum(rng, -PI / 4)
        for _ in range(20):
            lo = rng.uniform(-PI, PI - 0.2)
            hi = rng.uniform(lo + 0.05, PI)
            try:
                th1 = pick_agmon_angle(spec, lo, lo + 0.15, radius=4.0)
                th2 = pick_agmon_angle(spec, hi - 0.15, hi, radius=4.0)
            except AssertionError:
                continue
            k = zd.angle_shift_count(spec, th1, th2)
            l1 = zd.ldet(spec, min(th1, th2))
            l2 = zd.ldet(spec, max(th1, th2))
            worst_det = max(
                worst_det, abs(l1.det - l2.det) / (1 + abs(l1.det))
            )
            worst_k = max(worst_k, abs((l1.ldet - l2.ldet) - (-2j * PI * k)))
    ok = worst_det < TOL.finite_arithmetic and worst_k < 1e-9
    _criterion(
        "6 angle independence and 2*pi*i*k ladder",
        ok,
        f"worst det dev {worst_det:.2e}, ladder dev {worst_k:.2e}",
    )


def test_criterion_07_graded_identity_on_circle():
    worst = 0.0
    for a in _complex_grid():
        report = zd.refined_torsion(zd.build_rank1(a))
        worst = max(worst, report.identity_residual)
    _criterion(
        "7 graded log-determinant = xi - i*pi*eta",
        worst < TOL.identity_residual,
        f"worst residual {worst:.2e}",
    )


def test_criterion_08_ray_singer_comparison():
    started = time.perf_counter()
    worst_unitary = 0.0
    for a in _real_grid():
        rep = zd.trs_comparison(zd.build_rank1(a))
        worst_unitary = max(worst_unitary, abs(abs(rep.torsion) - rep.ray_singer))
    elapsed_unitary = time.perf_counter() - started

    started = time.perf_counter()
    worst_general = 0.0
    for a in _complex_grid():
        rep = zd.trs_comparison(zd.build_rank1(a))
        worst_general = max(worst_general, rep.residual_log_ratio)
    elapsed_general = time.perf_counter() - started

    ok = (
        worst_unitary < TOL.trs_residual
        and worst_general < TOL.trs_residual
        and elapsed_unitary < 5.0
        and elapsed_general < 5.0
    )
    _criterion(
        "8 Ray-Singer comparison |T| vs T^RS",
        ok,
        f"unitary {worst_unitary:.2e}, general {worst_general:.2e}, "
        f"{elapsed_unitary:.2f}s/{elapsed_general:.2f}s",
    )


def test_criterion_09_holomorphy():
    rep = zd.holomorphy_scan((0.2, 0.8), (-0.2, 0.2), 9, 1e-4)
    ok = rep.max_cr_residual < CR_RESIDUAL_REL * rep.max_abs_torsion
    _criterion(
        "9 holomorphy of a -> T(a) (Cauchy-Riemann)",
        ok,
        f"max CR {rep.max_cr_residual:.2e} vs {CR_RESIDUAL_REL * rep.max_abs_torsion:.2e}",
    )


def test_criterion_10_variation_formulas():
    eta_residuals = [
        zd.eta_variation_check(lambda t: 0.25 + t, 1e-4),
        zd.eta_variation_check(lambda t: 0.37, 1e-4),
        zd.eta_variation_check(lambda t: 0.25 + 0.1 * math.sin(t), 1e-4, t=0.6),
    ]
    arg_residuals = [
        zd.arg_derivative_check(zd.ConnectionFamily.rank1_path(0.25), 1e-4, t=0.05),
        zd.arg_derivative_check(zd.ConnectionFamily.diagonal_path([0.3], [0.0]), 1e-4),
        zd.arg_derivative_check(
            zd.ConnectionFamily.diagonal_path([0.25, 0.6 + 0.1j], [1.0, -0.5]),
            1e-4,
            t=0.1,
        ),
    ]
    worst = max(eta_residuals + arg_residuals)
    _criterion(
        "10 variation formulas (eta and Arg derivatives)",
        worst < TOL.variation_residual,
        f"worst residual {worst:.2e}",
    )


def test_criterion_11_symmetric_spectra():
    rng = random.Random(1111)
    worst_im_eta = 0.0
    worst_im_zeta = 0.0
    worst_identity = 0.0
    seen = set()
    for i in range(100):
        m_minus = (0, 1, 2)[i % 3]
        spec = random_symmetric_spectrum(rng, m_minus)
        theta = pick_agmon_angle(spec, -PI / 2 + 0.01, -0.01, radius=4.0)
        rep = zd.symmetric_spectrum_det(spec, theta)
        assert rep.m_minus == m_minus
        seen.add(m_minus)
        worst_im_eta = max(worst_im_eta, abs(rep.eta.imag))
        worst_im_zeta = max(worst_im_zeta, abs(rep.zeta_zero_square.imag))
        worst_identity = max(
            worst_identity, rep.residual / (1 + abs(rep.ldet_result.det))
        )
    ok = (
        seen == {0, 1, 2}
        and worst_im_eta < TOL.reality
        and worst_im_zeta < TOL.reality
        and worst_identity < TOL.reality
    )
    _criterion(
        "11 symmetric spectra: reality and signed factorization",
        ok,
        f"Im eta {worst_im_eta:.2e}, Im zeta0 {worst_im_zeta:.2e}, "
        f"identity {worst_identity:.2e}",
    )


def test_criterion_12_kernel_accuracy():
    dev_basel = abs(zd.hurwitz_zeta(2, 1).value - PI**2 / 6)
    rng = random.Random(12)
    dev_zero = 0.0
    for _ in range(40):
        q = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        dev_zero = max(dev_zero, abs(zd.hurwitz_zeta(0, q).value - (0.5 - q)))
    dev_deriv = abs(zd.hurwitz_zeta_ds0(1) - (-0.5 * math.log(2 * PI)))
    # direct-summation oracle backs the Basel value independently
    oracle = direct_hurwitz_sum(2.0, 1.0, 100_000)
    dev_oracle = abs(zd.hurwitz_zeta(2, 1).value - oracle)
    ok = all(
        d < KERNEL_ACCURACY for d in (dev_basel, dev_zero, dev_deriv, dev_oracle)
    )
    _criterion(
        "12 kernel accuracy (Basel, zeta(0,q), zeta'(0,1))",
        ok,
        f"devs {dev_basel:.1e}/{dev_zero:.1e}/{dev_deriv:.1e}",
    )


def test_criterion_13_rank_n_consistency():
    rng = random.Random(1313)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(2, 4)
        mus = []
        while len(mus) < n:
            mu = rng.uniform(0.5, 2.0) * cmath.exp(2j * PI * rng.random())
            if abs(mu - 1) >= 0.05:
                mus.append(mu)
        g = random_invertible(rng, n)
        m = g @ np.diag(mus) @ np.linalg.inv(g)
        model = zd.build_from_monodromy(m)
        t = zd.refined_torsion(model).torsion
        det_form = complex(np.linalg.det(np.eye(n) - m))
        product = 1.0 + 0.0j
        for a, mult in model.log_params:
            product *= zd.refined_torsion(zd.CircleModel(((a, 1),))).torsion ** mult
        worst = max(
            worst,
            abs(t - det_form) / abs(t),
            abs(t - product) / abs(t),
        )
    _criterion(
        "13 rank-n torsion = det(I - monodromy) = product of rank-1 factors",
        worst < CLOSED_FORM_REL,
        f"worst rel dev {worst:.2e}",
    )
