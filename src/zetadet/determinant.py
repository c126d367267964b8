"""Zeta-regularized determinants, graded determinants, and identity checks.

``ldet`` fixes the branch of the log-determinant as -zeta'(0, D).  The
verification routines compute both sides of the determinant/eta identities by
disjoint assembly paths: the left side never touches the squared spectrum or
the eta invariant, so the identities remain genuine cross-checks.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .complexcut import CutAngle, as_cut
from .config import AGMON_EPSILON, CUT_PICK_WIDTH, DEFAULT_TOLERANCES, Tolerances
from .errors import (
    HypothesisViolatedError,
    InfiniteCrossingError,
    NotAgmonError,
    NotSymmetricError,
    RealityViolatedError,
)
from .spectrum import (
    AgmonCertificate,
    GradedSpectrum,
    Spectrum,
    certify_agmon,
    decompose,
    imaginary_axis_counts,
    is_symmetric_about_real_axis,
    negate_spectrum,
    square_spectrum,
)
from .zetafun import eta_invariant, spectral_zeta, zeta_ds_at_zero

_PI = math.pi
_HALF_PI = 0.5 * _PI
_IMAGINARY_AXIS = (-_HALF_PI, _HALF_PI)


LDetResult = namedtuple("LDetResult", "ldet det theta")
DetEtaReport = namedtuple(
    "DetEtaReport", "lhs rhs_half_square eta zeta_zero_square residual observed_sign", defaults=(None,)
)
SymmetricDetReport = namedtuple(
    "SymmetricDetReport", "ldet_result factored m_minus eta zeta_zero_square det_square_abs residual"
)


def ldet(spec: Spectrum, theta) -> LDetResult:
    """Log-determinant -zeta_theta'(0, D) and its exponential.

    ``theta`` may be an ``AgmonCertificate`` for ``spec``, such as the cut
    ``pick_det_eta_cut`` returns; then it is not certified again.
    """
    cut = as_cut(theta)
    ld = -zeta_ds_at_zero(spec, cut)
    try:
        return LDetResult(ld, cmath.exp(ld), cut)
    except OverflowError:
        raise OverflowError(f"det of {spec} at theta={cut.raw} is exp({ld}), beyond the float range") from None


def graded_ldet(gspec: GradedSpectrum, theta) -> LDetResult:
    """Alternating sum over parities of LDet_theta((-1)^j D_j)."""
    cut = as_cut(theta)
    total = 0.0 + 0.0j
    for j, part in gspec.components:
        eff = negate_spectrum(part) if j % 2 else part
        try:
            contrib = -zeta_ds_at_zero(eff, cut)
        except NotAgmonError as exc:
            raise NotAgmonError(
                witness=exc.witness, component=j,
                message="cut is not Agmon for a graded component",
            ) from exc
        total += (-1) ** j * contrib
    return LDetResult(total, cmath.exp(total), cut)


def _hypothesis_direction(d: float) -> float:
    """A point's phase d, shifted by -pi from the second quadrant.

    The point lies in (-pi/2, theta] or (pi/2, theta + pi] for a theta in
    (-pi/2, 0) exactly when its hypothesis direction lies in (-pi/2, theta].
    """
    return d - _PI if _HALF_PI < d < _PI else d


def pick_det_eta_cut(spec: Spectrum) -> AgmonCertificate:
    """Cut in (-pi/2, 0) whose determinant/eta hypothesis sectors are empty, with its certificate.

    Places the cut halfway between -pi/2 and the least hypothesis direction
    ``upper`` in (-pi/2, 0), and refuses when that wedge is no wider than
    ``config.CUT_PICK_WIDTH``.  That direction belongs to an eigenvalue next
    to the imaginary axis, so only those are examined.

    The cut is returned as an ``AgmonCertificate`` for ``spec`` at
    ``AGMON_EPSILON``, for both of its rays.  No eigenvalue direction lies in
    (-pi/2, upper) or in (pi/2, upper + pi), and every tail lies at 0 or pi,
    at least pi/4 away; so the cut at theta and the ray at theta + pi clear
    every eigenvalue by (upper + pi/2)/2 > CUT_PICK_WIDTH/2 = 2*AGMON_EPSILON.
    """
    upper = 0.0
    for _, arg in spec.phases_near(_IMAGINARY_AXIS):
        d = _hypothesis_direction(arg)
        if -_HALF_PI < d < upper:
            upper = d
    if upper + _HALF_PI <= CUT_PICK_WIDTH:
        raise NotAgmonError(
            message="no admissible cut in (-pi/2, 0) for this spectrum"
        )
    return AgmonCertificate(CutAngle(0.5 * (upper - _HALF_PI)), spec, AGMON_EPSILON, line=True)


def _check_hypothesis_sectors(spec: Spectrum, theta_val: float):
    """No eigenvalues in the solid angles (-pi/2, theta] and (pi/2, theta+pi].

    ``theta_val`` lies in (-pi/2, 0), so both sectors miss the tails at 0 and pi.
    """
    for (v, _), arg in spec.phases_near((-_HALF_PI, theta_val, _HALF_PI, theta_val + _PI)):
        if -_HALF_PI < _hypothesis_direction(arg) <= theta_val:
            lo, hi = (_HALF_PI, theta_val + _PI) if v.imag > 0 else (-_HALF_PI, theta_val)
            raise HypothesisViolatedError((lo, hi), v)


def _cut_in_range(theta, caller: str) -> CutAngle:
    cut = as_cut(theta)
    if not -_HALF_PI < cut.normalized < 0.0:
        raise ValueError(f"{caller} requires theta in (-pi/2, 0)")
    return cut


def _square_side(spec: Spectrum, cut: CutAngle):
    """zeta'_{2theta}(0, D^2), eta(D), zeta_{2theta}(0, D^2) and m_-(D): the side built from D^2.

    D^2 is certified once.  Without lattice families zeta(0) is the multiplicity
    count, summed as the evaluator sums m * lambda^0, signed zeros included.
    One ``imaginary_axis_counts`` pass gives eta its (m_+, m_-) and the
    factorization its m_-."""
    square = square_spectrum(spec)
    cut2 = cut.doubled()
    dz_sq = zeta_ds_at_zero(square, cut2)
    counts = imaginary_axis_counts(spec)
    eta = eta_invariant(spec, counts)
    families, points = decompose(square)
    z0 = (spectral_zeta(square, cut2, 0.0).value if families
          else complex(sum(float(m) for _, m in points)))
    return dz_sq, eta, z0, counts[1]


def _identity(lhs: complex, side, upper: bool = False, hypothesis_ok: bool = True):
    """``lhs`` against LDet_{2theta}(D^2)/2 -+ i*pi*(eta - zeta_{2theta}(0, D^2)/2).

    + for the upper mirror; without the sector hypothesis, up to the observed sign.
    """
    dz_sq, eta, z0, _ = side
    half_square = -0.5 * dz_sq
    phase_term = 1j * _PI * (eta - 0.5 * z0)
    rhs = half_square + phase_term if upper else half_square - phase_term
    sign: int | None = None
    if hypothesis_ok:
        residual = abs(lhs - rhs)
    else:
        det_lhs, det_rhs = cmath.exp(lhs), cmath.exp(rhs)
        sign = 1 if abs(det_lhs - det_rhs) <= abs(det_lhs + det_rhs) else -1
        residual = abs(det_lhs - sign * det_rhs)
    return DetEtaReport(lhs, half_square, eta, z0, residual, sign)


def _factorization(base: LDetResult, side, tol: Tolerances):
    dz_sq, eta, z0, m_minus = side
    if abs(eta.imag) > tol.reality:
        raise RealityViolatedError("eta invariant", eta.imag)
    if abs(z0.imag) > tol.reality:
        raise RealityViolatedError("zeta_{2theta}(0, D^2)", z0.imag)
    det_square = cmath.exp(-dz_sq)
    if abs(det_square.imag) > tol.reality * (1.0 + abs(det_square)):
        raise RealityViolatedError("Det_{2theta}(D^2)", det_square.imag)
    factored = (
        (-1.0) ** m_minus
        * math.sqrt(abs(det_square))
        * cmath.exp(-1j * _PI * (eta - 0.5 * z0))
    )
    residual = abs(base.det - factored)
    return SymmetricDetReport(base, factored, m_minus, eta, z0, abs(det_square), residual)


def verify_det_eta(spec: Spectrum, theta, allow_sign_flip: bool = False) -> DetEtaReport:
    """Check LDet_theta(D) = LDet_{2theta}(D^2)/2 - i*pi*(eta - zeta_{2theta}(0, D^2)/2).

    ``theta`` must lie in (-pi/2, 0) with the hypothesis sectors free of
    eigenvalues.  With ``allow_sign_flip`` the sector check is skipped and the
    report carries the observed sign of Det_theta(D) relative to the factored
    side.
    """
    cut = _cut_in_range(theta, "verify_det_eta")
    hypothesis_ok = True
    try:
        _check_hypothesis_sectors(spec, cut.normalized)
    except HypothesisViolatedError:
        if not allow_sign_flip:
            raise
        hypothesis_ok = False
    lhs = -zeta_ds_at_zero(spec, cut)
    return _identity(lhs, _square_side(spec, cut), hypothesis_ok=hypothesis_ok)


def verify_det_eta_upper(spec: Spectrum, theta) -> DetEtaReport:
    """Upper-half-plane variant: LDet along the ray at theta+pi, + i*pi*(...) sign.

    The branch window is (theta - pi, theta + pi): same ray as direction
    theta + pi, with the window below it.  With the window above the ray the
    two sides differ by 2*pi*i * zeta_{2theta}(0, D^2).
    """
    cut = _cut_in_range(theta, "verify_det_eta_upper")
    _check_hypothesis_sectors(spec, cut.normalized)
    lhs = -zeta_ds_at_zero(spec, cut.shifted(-_PI))
    return _identity(lhs, _square_side(spec, cut), upper=True)


def _turns(d: float, lo: float, hi: float) -> int:
    """The number of integers k with d + 2*pi*k in [lo, hi]: how often a sweep passes d."""
    t = lo + math.fmod(d - lo, 2.0 * _PI)
    if t < lo:
        t += 2.0 * _PI
    return 0 if t > hi else 1 + math.floor((hi - t) / (2.0 * _PI))


def angle_shift_count(
    spec: Spectrum,
    theta1,
    theta2,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Total multiplicity swept between two Agmon cuts, once per turn that passes a point.

    Also verifies zeta'_{lo}(0) - zeta'_{hi}(0) = 2*pi*i*k, lo and hi the lower
    and the upper of the two cuts, and the equality of the two determinants.
    """
    c1 = as_cut(theta1)
    c2 = as_cut(theta2)
    # each certificate then stands for its cut in the zeta' below
    lo_cut, hi_cut = sorted(
        (certify_agmon(spec, c1, AGMON_EPSILON), certify_agmon(spec, c2, AGMON_EPSILON)),
        key=float,
    )
    lo, hi = lo_cut.normalized, hi_cut.normalized

    for d in spec.tail_directions():
        if _turns(d, lo, hi):
            raise InfiniteCrossingError(
                f"lattice tail direction {d} lies in the swept sector"
            )
    count = sum(m * _turns(arg, lo, hi) for (_, m), arg in spec.phases_near((lo, hi)))

    d1 = zeta_ds_at_zero(spec, lo_cut)
    d2 = zeta_ds_at_zero(spec, hi_cut)
    scale = 1.0 + abs(d1) + abs(d2)
    if abs(d1 - d2 - 2j * _PI * count) > tol.finite_arithmetic * scale * 10.0:
        raise ArithmeticError(
            "angle-shift identity violated: "
            f"zeta' difference {d1 - d2} vs expected {2j * _PI * count}"
        )
    det1 = cmath.exp(-d1)
    det2 = cmath.exp(-d2)
    if abs(det1 - det2) > tol.finite_arithmetic * (1.0 + abs(det1)) * 10.0:
        raise ArithmeticError("determinants disagree across the angle shift")
    return count


def symmetric_spectrum_det(
    spec: Spectrum, theta, tol: Tolerances = DEFAULT_TOLERANCES
) -> SymmetricDetReport:
    """Factored determinant for spectra symmetric about the real axis.

    Asserts that eta, zeta_{2theta}(0, D^2) and Det_{2theta}(D^2) are real,
    then checks Det_theta(D) against
    (-1)^{m_-} * sqrt(|Det_{2theta}(D^2)|) * exp(-i*pi*(eta - zeta0/2)).
    """
    if not is_symmetric_about_real_axis(spec):
        raise NotSymmetricError("spectrum is not symmetric about the real axis")
    cut = _cut_in_range(theta, "symmetric_spectrum_det")
    base = ldet(spec, cut)
    return _factorization(base, _square_side(spec, cut), tol)


def verify_spectrum(
    spec: Spectrum, theta, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[DetEtaReport, DetEtaReport, SymmetricDetReport | None]:
    """The reports of ``verify_det_eta``, ``verify_det_eta_upper`` and
    ``symmetric_spectrum_det`` (``None`` unless symmetric), from one pass.

    The range and sector checks, LDet_theta(D), the square side and the
    symmetry test are computed once.  Errors come as from the three verifiers
    run in that order.  A finite eigenvalue's phase and log-modulus are taken
    once, for D and for D^2, by ``Finite``; the sector check, the three Agmon
    tests and the three branch shifts of ``branch_angle`` (D at theta and
    theta - pi, D^2 at 2*theta) read them.
    """
    cut = _cut_in_range(theta, "verify_det_eta")
    _check_hypothesis_sectors(spec, cut.normalized)
    base = ldet(spec, cut)
    side = _square_side(spec, cut)
    lower = _identity(base.ldet, side)
    upper = _identity(-zeta_ds_at_zero(spec, cut.shifted(-_PI)), side, upper=True)
    symmetric = None
    if is_symmetric_about_real_axis(spec):
        symmetric = _factorization(base, side, tol)
    return lower, upper, symmetric
