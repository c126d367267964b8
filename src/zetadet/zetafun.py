"""Spectral zeta and eta functions via analytic continuation.

Finite spectra are summed exactly.  Lattice-type spectra are split into two
tails: finitely many eigenvalues near the origin are summed with exact cut
branches, and the far tails — whose branch winding is constant once the
arguments settle near the accumulation directions — are continued with the
Hurwitz zeta kernel, times the winding phase ``exp(-2*pi*i*k*s)``.

The derivative at s = 0 is assembled from the exact identities
``zeta_H(0, q) = 1/2 - q`` and ``zeta_H'(0, q) = log Gamma(q) - log(2*pi)/2``
rather than by numerical differentiation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexcut import TAU, CutAngle, ang_dist, as_cut, log_cut, pow_cut
from .config import (
    DEFAULT_TOLERANCES,
    EM_BERNOULLI_ORDER,
    Tolerances,
    em_num_terms,
    explicit_terms,
)
from .errors import DomainError, PoleError
from .kernels import hurwitz_zeta_raw, log_gamma
from .spectrum import (
    HermQuadLattice,
    Lattice,
    QuadLattice,
    Spectrum,
    _normalize_log_param,
    certify_agmon,
    decompose,
    imaginary_axis_counts,
)

_PI = math.pi
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * _PI)
_HERM_SERIES_CAP = 200


@dataclass(frozen=True)
class ZetaResult:
    value: complex
    error_estimate: float


def _hz(s: complex, q: complex):
    return hurwitz_zeta_raw(s, q, em_num_terms(s, q), EM_BERNOULLI_ORDER)


def hurwitz_zeta(s: complex, q: complex) -> ZetaResult:
    """Analytic continuation of sum_{n>=0} (n+q)^{-s} for Re(q) > 0."""
    s = complex(s)
    q = complex(q)
    if s == 1:
        raise PoleError(1, "the Hurwitz zeta function has its pole at s=1")
    if q.real <= 0.0:
        raise DomainError("hurwitz_zeta requires Re(q) > 0")
    value, err = _hz(s, q)
    return ZetaResult(value, err)


def hurwitz_zeta_ds0(q: complex) -> complex:
    """d/ds of the Hurwitz zeta at s=0: log Gamma(q) - log(2*pi)/2."""
    q = complex(q)
    if q.real <= 0.0:
        raise DomainError("hurwitz_zeta_ds0 requires Re(q) > 0")
    return log_gamma(q) - _HALF_LOG_TWO_PI


def _tail_winding(direction: float, cut_value: float) -> int:
    """Integer k with direction + 2*pi*k in (cut_value, cut_value + 2*pi)."""
    return math.floor((cut_value - direction) / TAU) + 1


def _tail_buffer(q: complex, gap: float, halve: bool = False) -> int:
    """Terms to pull out before the winding of q + m is provably constant."""
    g = min(gap, 1.45)
    if halve:
        g *= 0.5
    need = 1.0 - q.real
    v = abs(q.imag)
    if v > 0.0:
        need = max(need, v / math.tan(0.9 * g) - q.real)
    return max(4, explicit_terms(need) + 1)


def _lat_split(a: complex):
    atil, _ = _normalize_log_param(a)
    return atil, 1.0 - atil


# ---------------------------------------------------------------------------
# integer-lattice family {a + n}


def _lat_zeta(a, mu, cut: CutAngle, s, tol: Tolerances):
    if s == 1:
        raise PoleError(1)
    atil, qm = _lat_split(a)
    th = cut.normalized
    k_r = _tail_winding(0.0, th)
    k_l = _tail_winding(_PI, th)
    buf_r = _tail_buffer(atil, ang_dist(th, 0.0))
    buf_l = _tail_buffer(qm, ang_dist(th, _PI))
    total = 0.0 + 0.0j
    for m in range(buf_r):
        total += pow_cut(atil + m, s, cut, tol.on_cut_angle)
    for m in range(buf_l):
        total += pow_cut(-(qm + m), s, cut, tol.on_cut_angle)
    z_r, e_r = _hz(s, atil + buf_r)
    z_l, e_l = _hz(s, qm + buf_l)
    total += cmath.exp(-2j * _PI * k_r * s) * z_r
    total += cmath.exp(-1j * _PI * (2 * k_l + 1) * s) * z_l
    return mu * total, mu * (e_r + e_l)


def _lat_dzeta0(a, mu, cut: CutAngle, tol: Tolerances) -> complex:
    atil, qm = _lat_split(a)
    th = cut.normalized
    k_r = _tail_winding(0.0, th)
    k_l = _tail_winding(_PI, th)
    buf_r = _tail_buffer(atil, ang_dist(th, 0.0))
    buf_l = _tail_buffer(qm, ang_dist(th, _PI))
    acc = 0.0 + 0.0j
    for m in range(buf_r):
        acc -= log_cut(atil + m, cut, tol.on_cut_angle)
    for m in range(buf_l):
        acc -= log_cut(-(qm + m), cut, tol.on_cut_angle)
    w_r = atil + buf_r
    w_l = qm + buf_l
    acc += -2j * _PI * k_r * (0.5 - w_r) + log_gamma(w_r) - _HALF_LOG_TWO_PI
    acc += -1j * _PI * (2 * k_l + 1) * (0.5 - w_l) + log_gamma(w_l) - _HALF_LOG_TWO_PI
    return mu * acc


def _lat_eta(a, mu, cut: CutAngle, s, tol: Tolerances):
    if s == 1:
        raise PoleError(1)
    atil, qm = _lat_split(a)
    th = cut.normalized
    k0 = _tail_winding(0.0, th)
    gap = ang_dist(th, 0.0)
    buf_r = _tail_buffer(atil, gap)
    buf_l = _tail_buffer(qm, gap)
    skip_r = 1 if atil.real <= tol.imag_axis else 0
    skip_l = 1 if qm.real <= tol.imag_axis else 0
    phase = cmath.exp(-2j * _PI * k0 * s)
    pos = sum(
        pow_cut(atil + m, s, cut, tol.on_cut_angle) for m in range(skip_r, buf_r)
    )
    neg = sum(
        pow_cut(qm + m, s, cut, tol.on_cut_angle) for m in range(skip_l, buf_l)
    )
    z_r, e_r = _hz(s, atil + buf_r)
    z_l, e_l = _hz(s, qm + buf_l)
    value = mu * ((pos + phase * z_r) - (neg + phase * z_l))
    return value, mu * (e_r + e_l)


# ---------------------------------------------------------------------------
# squared lattice {(a + n)^2}


def _quad_zeta(a, mu, cut: CutAngle, s, tol: Tolerances):
    if s == 0.5:
        raise PoleError(0.5)
    atil, qm = _lat_split(a)
    th = cut.normalized
    k0 = _tail_winding(0.0, th)
    gap = ang_dist(th, 0.0)
    buf_r = _tail_buffer(atil, gap, halve=True)
    buf_l = _tail_buffer(qm, gap, halve=True)
    total = 0.0 + 0.0j
    for m in range(buf_r):
        v = (atil + m) ** 2
        total += pow_cut(v, s, cut, tol.on_cut_angle)
    for m in range(buf_l):
        v = (qm + m) ** 2
        total += pow_cut(v, s, cut, tol.on_cut_angle)
    z_r, e_r = _hz(2 * s, atil + buf_r)
    z_l, e_l = _hz(2 * s, qm + buf_l)
    total += cmath.exp(-2j * _PI * k0 * s) * (z_r + z_l)
    return mu * total, mu * (e_r + e_l)


def _quad_dzeta0(a, mu, cut: CutAngle, tol: Tolerances) -> complex:
    atil, qm = _lat_split(a)
    th = cut.normalized
    k0 = _tail_winding(0.0, th)
    gap = ang_dist(th, 0.0)
    buf_r = _tail_buffer(atil, gap, halve=True)
    buf_l = _tail_buffer(qm, gap, halve=True)
    acc = 0.0 + 0.0j
    for m in range(buf_r):
        acc -= log_cut((atil + m) ** 2, cut, tol.on_cut_angle)
    for m in range(buf_l):
        acc -= log_cut((qm + m) ** 2, cut, tol.on_cut_angle)
    w_r = atil + buf_r
    w_l = qm + buf_l
    acc += -2j * _PI * k0 * ((0.5 - w_r) + (0.5 - w_l))
    acc += 2.0 * (log_gamma(w_r) - _HALF_LOG_TWO_PI)
    acc += 2.0 * (log_gamma(w_l) - _HALF_LOG_TWO_PI)
    return mu * acc


# ---------------------------------------------------------------------------
# Hermitian-Laplacian lattice {(n + a)(n + conj a)} — positive reals


def _herm_pole_check(s: complex):
    if s.imag == 0.0:
        t = 0.5 - s.real
        if t >= 0.0 and t == round(t):
            raise PoleError(s)


def _herm_buffer(q: complex) -> int:
    # binomial tail needs (Im q / (Re q + K))^2 < 1/4 and Re q + K >= 1
    v = abs(q.imag)
    return max(4, explicit_terms(2.0 * v + 1.0 - q.real) + 1)


def _herm_tail_series(s, w: float, v2: float, accumulate_err):
    """sum_{j>=0} binom(-s, j) * v^(2j) * zeta_H(2s + 2j, w)."""
    series = 0.0 + 0.0j
    b = 1.0 + 0.0j
    vpow = 1.0
    for j in range(_HERM_SERIES_CAP):
        if j > 0:
            b *= (-s - (j - 1)) / j
            vpow *= v2
            if vpow == 0.0:
                break
        zj, ej = _hz(2 * s + 2 * j, w)
        term = b * vpow * zj
        series += term
        accumulate_err(abs(b) * vpow * ej)
        if j > 0 and abs(term) < 1e-18 * (1.0 + abs(series)):
            accumulate_err(abs(term))
            break
    return series


def _herm_zeta(a, mu, cut: CutAngle, s, tol: Tolerances):
    s = complex(s)
    _herm_pole_check(s)
    atil, qm = _lat_split(a)
    th = cut.normalized
    k0 = _tail_winding(0.0, th)
    err_box = [0.0]

    def add_err(e):
        err_box[0] += e

    total = 0.0 + 0.0j
    tails = 0.0 + 0.0j
    for q0 in (atil, qm):
        buf = _herm_buffer(q0)
        for m in range(buf):
            v = abs(q0 + m) ** 2
            total += pow_cut(v, s, cut, tol.on_cut_angle)
        tails += _herm_tail_series(s, q0.real + buf, q0.imag * q0.imag, add_err)
    total += cmath.exp(-2j * _PI * k0 * s) * tails
    return mu * total, mu * err_box[0]


def _herm_dzeta0(a, mu, cut: CutAngle, tol: Tolerances) -> complex:
    atil, qm = _lat_split(a)
    th = cut.normalized
    k0 = _tail_winding(0.0, th)
    acc = 0.0 + 0.0j
    zeta0_tails = 0.0 + 0.0j
    for q0 in (atil, qm):
        buf = _herm_buffer(q0)
        for m in range(buf):
            acc -= log_cut(abs(q0 + m) ** 2, cut, tol.on_cut_angle)
        w = q0.real + buf
        v2 = q0.imag * q0.imag
        zeta0_tails += 0.5 - w
        acc += 2.0 * (log_gamma(w) - _HALF_LOG_TWO_PI)
        if v2 > 0.0:
            vpow = v2
            for j in range(1, _HERM_SERIES_CAP):
                zj, _ = _hz(2 * j, w)
                term = ((-1.0) ** j / j) * vpow * zj
                acc += term
                vpow *= v2
                if abs(term) < 1e-18 * (1.0 + abs(acc)):
                    break
    acc += -2j * _PI * k0 * zeta0_tails
    return mu * acc


def _lat_eta0(a, mu, tol: Tolerances) -> complex:
    atil, qm = _lat_split(a)
    skip_r = 1 if atil.real <= tol.imag_axis else 0
    skip_l = 1 if qm.real <= tol.imag_axis else 0
    return mu * (1.0 - 2.0 * atil - skip_r + skip_l)


# ---------------------------------------------------------------------------
# assembly over the decomposition: family closed forms plus finite points

# closed forms per lattice family: zeta(s), zeta'(0), eta(s), eta(0)
_FORMS = {
    Lattice: (_lat_zeta, _lat_dzeta0, _lat_eta, _lat_eta0),
    QuadLattice: (_quad_zeta, _quad_dzeta0, None, None),
    HermQuadLattice: (_herm_zeta, _herm_dzeta0, None, None),
}
_ZETA, _DZETA0, _ETA, _ETA0 = range(4)


def _assemble(spec: Spectrum, column: int, family, points):
    """Sum of ``family(form, f)`` over the families and ``points(pts)``.

    Every term is a (value, error) pair; the points term is left out when the
    spectrum has families but no points.  The sum starts from the first term,
    not from zero, so a lone family or a finite spectrum keeps its value bit
    for bit, signed zeros included.
    """
    families, pts = decompose(spec)
    terms = []
    for f in families:
        form = _FORMS[type(f)][column]
        if form is None:
            raise TypeError(f"eta undefined for {type(f).__name__}")
        terms.append(family(form, f))
    if pts or not terms:
        terms.append(points(pts))
    value, err = terms[0]
    for v, e in terms[1:]:
        value += v
        err += e
    return value, err


def _zeta_value(spec: Spectrum, cut: CutAngle, s, tol: Tolerances):
    def points(pts):
        total = sum(m * pow_cut(v, s, cut, tol.on_cut_angle) for v, m in pts)
        return complex(total), 0.0

    return _assemble(
        spec, _ZETA, lambda form, f: form(f.a, f.mu, cut, s, tol), points
    )


def _dzeta0_value(spec: Spectrum, cut: CutAngle, tol: Tolerances) -> complex:
    def points(pts):
        return -sum(m * log_cut(v, cut, tol.on_cut_angle) for v, m in pts), 0.0

    return _assemble(
        spec, _DZETA0, lambda form, f: (form(f.a, f.mu, cut, tol), 0.0), points
    )[0]


def spectral_zeta(
    spec: Spectrum, theta, s, tol: Tolerances = DEFAULT_TOLERANCES
) -> ZetaResult:
    """zeta_theta(s, D) = sum of m_k * lambda_k^{-s} along the cut."""
    cut = as_cut(theta)
    certify_agmon(spec, cut, tol.agmon_epsilon)
    try:
        value, err = _zeta_value(spec, cut, complex(s), tol)
    except OverflowError:
        raise OverflowError(f"spectral zeta of {spec} at s={complex(s)} overflows the float range") from None
    return ZetaResult(value, err)


def zeta_at_zero(
    spec: Spectrum, theta, tol: Tolerances = DEFAULT_TOLERANCES
) -> complex:
    """zeta_theta(0, D); the total multiplicity for finite spectra."""
    return spectral_zeta(spec, theta, 0.0, tol).value


def zeta_ds_at_zero(
    spec: Spectrum, theta, tol: Tolerances = DEFAULT_TOLERANCES
) -> complex:
    """zeta_theta'(0, D), assembled exactly (no numerical differentiation)."""
    cut = as_cut(theta)
    certify_agmon(spec, cut, tol.agmon_epsilon)
    return _dzeta0_value(spec, cut, tol)


# ---------------------------------------------------------------------------
# eta function and invariant


def _eta_value(spec: Spectrum, cut: CutAngle, s, tol: Tolerances):
    def points(pts):
        total = 0.0 + 0.0j
        for v, m in pts:
            if v.real > tol.imag_axis:
                total += m * pow_cut(v, s, cut, tol.on_cut_angle)
            elif v.real < -tol.imag_axis:
                total -= m * pow_cut(-v, s, cut, tol.on_cut_angle)
        return total, 0.0

    return _assemble(
        spec, _ETA, lambda form, f: form(f.a, f.mu, cut, s, tol), points
    )


def eta_function(
    spec: Spectrum, theta, s, tol: Tolerances = DEFAULT_TOLERANCES
) -> complex:
    """Spectral asymmetry function; imaginary-axis eigenvalues are excluded."""
    cut = as_cut(theta)
    certify_agmon(spec, cut, tol.agmon_epsilon)
    value, _ = _eta_value(spec, cut, complex(s), tol)
    return value


def _eta_at_zero(spec: Spectrum, tol: Tolerances) -> complex:
    """eta_theta(0, D); branch-free, hence independent of the cut."""

    def points(pts):
        total = 0
        for v, m in pts:
            if v.real > tol.imag_axis:
                total += m
            elif v.real < -tol.imag_axis:
                total -= m
        return complex(total), 0.0

    return _assemble(
        spec, _ETA0, lambda form, f: (form(f.a, f.mu, tol), 0.0), points
    )[0]


def eta_invariant(spec: Spectrum, tol: Tolerances = DEFAULT_TOLERANCES) -> complex:
    """(eta(0, D) + m_+ - m_-) / 2 — the sign-refined eta invariant."""
    m_plus, m_minus = imaginary_axis_counts(spec, tol)
    return 0.5 * (_eta_at_zero(spec, tol) + m_plus - m_minus)
