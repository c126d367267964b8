"""Spectral zeta and eta functions via analytic continuation.

One evaluator sums every part of ``spectrum.decompose(spec)``: a head of
``(point, weight)`` pairs near the origin, summed with exact cut branches,
and tail groups ``(sign, k, (w, ...))`` of far tails with constant winding.
A lattice family ({a + n}, its squares {(a + n)^2}, the Hermitian {|a + n|^2})
is its layout, head points at weight m = 1, scaled by its mu; the finite points
are one more head, weighted by their multiplicities, with no tails and no mu.
The Hurwitz scale is the growth order, 1 for {a + n} and 2 for the squares,
and v^2 is (Im a)^2 for the Hermitian family and 0 otherwise.  zeta(s) is

    sum m * lambda^{-s} + sum sign * exp(-i*pi*k*s) * sum_w T(s, w),
    T(s, w) = sum_j binom(-s, j) * v^(2j) * zeta_H(scale*s + 2j, w),

with its error estimate, and zeta'(0) is exact, from ``zeta_H(0, w) = 1/2 - w``
and ``zeta_H'(0, w) = log Gamma(w) - log(2*pi)/2``.  With N the Euler-Maclaurin
shift length of zeta_H(scale*s, w), the shifts k < N - 1 of the rungs j >= 1
sum over j in closed form,

    T(s, w) = zeta_H(scale*s, w) + sum_{k<N-1} (w + k)^{-scale*s} * ((1 + x_k)^{-s} - 1)
              + sum_{j>=1} binom(-s, j) * v^(2j) * zeta_H(scale*s + 2j, w + N - 1),

with x_k = v^2 / (w + k)^2, so every rung keeps its remainder at w + N and the
series converges at the ratio v^2 / (w + N - 1)^2; its head ends past 2|Im a|.
For zeta'(0) the Hermitian head ends instead at w >= 7, whatever v, and

    T'(0, w) = 2*(log Gamma(w) - log(2*pi)/2) - sum_{n>=0} h(w + n),  h(x) = log1p(v^2 / x^2),

sums h by Euler-Maclaurin on h itself, with no Hurwitz call: the integral, the
half term and Bernoulli terms in the Stirling coefficients C_k, whose
w^(1-2k) parts cancel those of log Gamma(w)'s Stirling series, leaving

    T'(0, w) = (w - 1/2)*log(w^2 + v^2) - 2v*arctan(v/w) - 2w + 2*sum_k C_k*Re (w + iv)^(1-2k).

eta applies one sign rule to the finite points and to the head of {a + n}:
weight m for Re > 0, the point negated at weight -m for Re < 0, the imaginary
axis left out; the left tail of {a + n} is negated onto the tail at 0 with
sign -1.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import namedtuple

from .complexcut import TAU, CutAngle, ang_dist, as_cut, branch_angle, finite_complex, log_modulus
from .config import AGMON_EPSILON, IMAG_AXIS, em_num_terms, explicit_terms
from .errors import DomainError, PoleError
from .kernels import _STIRLING_COEF, hurwitz_zeta_raw, log_gamma
from .spectrum import (
    AgmonCertificate,
    Finite,
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
_SERIES_CAP = 200
# the least start of the Hermitian tail of zeta'(0): its remainders are below 1e-17 there
_HERM_DS0_START = 7.0


ZetaResult = namedtuple("ZetaResult", "value error_estimate")


def _hz(s: complex, q: complex):
    return hurwitz_zeta_raw(s, q, em_num_terms(s, q))


def hurwitz_zeta(s: complex, q: complex) -> ZetaResult:
    """Analytic continuation of sum_{n>=0} (n+q)^{-s} for Re(q) > 0."""
    s = finite_complex(s, "s")
    q = finite_complex(q, "q")
    if s == 1:
        raise PoleError(1, "the Hurwitz zeta function has its pole at s=1")
    if q.real <= 0.0:
        raise DomainError("hurwitz_zeta requires Re(q) > 0")
    value, err = _hz(s, q)
    return ZetaResult(value, err)


def hurwitz_zeta_ds0(q: complex) -> complex:
    """d/ds of the Hurwitz zeta at s=0: log Gamma(q) - log(2*pi)/2."""
    q = finite_complex(q, "q")
    if q.real <= 0.0:
        raise DomainError("hurwitz_zeta_ds0 requires Re(q) > 0")
    return log_gamma(q) - _HALF_LOG_TWO_PI


def _tail_winding(direction: float, cut_value: float) -> int:
    """Integer k with direction + 2*pi*k in (cut_value, cut_value + 2*pi)."""
    return math.floor((cut_value - direction) / TAU) + 1


def _tail_buffer(q: complex, gap: float, halve: bool = False) -> int:
    """Terms to pull out before the winding of q + m is provably constant.

    That is max(4, 1 + explicit_terms(max(1 - Re q, |Im q| / tan(0.9 * g) - Re q))),
    with g = min(gap, 1.45), halved with ``halve``.  Every evaluation of a family
    calls it, so min and max are written out as comparisons, with their results.
    """
    g = 1.45 if 1.45 < gap else gap
    if halve:
        g *= 0.5
    need = 1.0 - q.real
    v = abs(q.imag)
    if v > 0.0:
        far = v / math.tan(0.9 * g) - q.real
        if far > need:
            need = far
    n = explicit_terms(need) + 1
    return n if n > 4 else 4


# ---------------------------------------------------------------------------
# layouts: each lattice family as a head of (point, weight) pairs plus Hurwitz tail groups


def _lattice(f: Lattice, cut: CutAngle) -> tuple:
    """{a + n}: right points a~ + m and left points -(1 - a~ + m), Re a~ in (0, 1]."""
    atil, _ = _normalize_log_param(f.a)
    qm = 1.0 - atil
    th = cut.normalized
    buf_r = _tail_buffer(atil, ang_dist(th, 0.0))
    buf_l = _tail_buffer(qm, ang_dist(th, _PI))
    head = [(atil + m, 1) for m in range(buf_r)] + [(-(qm + m), 1) for m in range(buf_l)]
    k_r, k_l = 2 * _tail_winding(0.0, th), 2 * _tail_winding(_PI, th) + 1
    return head, ((1, k_r, (atil + buf_r,)), (1, k_l, (qm + buf_l,)))


def _eta_signed(points) -> list:
    """eta's sign rule: (v, m) for Re v > 0, (-v, -m) for Re v < 0; the imaginary axis left out."""
    signed = []
    for v, m in points:
        if v.real > IMAG_AXIS:
            signed.append((v, m))
        elif v.real < -IMAG_AXIS:
            signed.append((-v, -m))
    return signed


def _lattice_eta(f: Lattice, cut: CutAngle) -> tuple:
    """{a + n} for eta: the sign rule on the head; the left tail negated onto the tail at 0."""
    atil, _ = _normalize_log_param(f.a)
    qm = 1.0 - atil
    th = cut.normalized
    gap = ang_dist(th, 0.0)
    buf_r, buf_l = _tail_buffer(atil, gap), _tail_buffer(qm, gap)
    head = _eta_signed([(atil + m, 1) for m in range(buf_r)] + [(-(qm + m), 1) for m in range(buf_l)])
    k = 2 * _tail_winding(0.0, th)
    return head, ((1, k, (atil + buf_r,)), (-1, k, (qm + buf_l,)))


def _quad(f: QuadLattice, cut: CutAngle) -> tuple:
    """{(a + n)^2}: both halves of the lattice square onto the tail at 0."""
    atil, _ = _normalize_log_param(f.a)
    qm = 1.0 - atil
    th = cut.normalized
    gap = ang_dist(th, 0.0)
    buf_r, buf_l = _tail_buffer(atil, gap, halve=True), _tail_buffer(qm, gap, halve=True)
    head = [((atil + m) ** 2, 1) for m in range(buf_r)] + [((qm + m) ** 2, 1) for m in range(buf_l)]
    return head, ((1, 2 * _tail_winding(0.0, th), (atil + buf_r, qm + buf_l)),)


def _herm(f: HermQuadLattice, cut: CutAngle, deriv: bool) -> tuple:
    """{|a + n|^2}: the squares of Re a + n, offset by v^2 = (Im a)^2; zeta'(0)'s with ``deriv``."""
    atil, _ = _normalize_log_param(f.a)
    head, ws = [], []
    for q in (atil, 1.0 - atil):
        if deriv:
            buf = explicit_terms(_HERM_DS0_START - q.real)
        else:
            # the binomial series needs (Im q / (Re q + buf))^2 < 1/4 and Re q + buf >= 1
            buf = max(4, explicit_terms(2.0 * abs(q.imag) + 1.0 - q.real) + 1)
        head += [(abs(q + m) ** 2, 1) for m in range(buf)]
        ws.append(q.real + buf)
    k = 2 * _tail_winding(0.0, cut.normalized)
    return head, ((1, k, tuple(ws)),)


_LAYOUTS = {Lattice: _lattice, QuadLattice: _quad}


# ---------------------------------------------------------------------------
# the evaluator


def _herm_ds0(v: float, w: float, errs: list) -> float:
    """T'(0, w) of the Hermitian tail, w >= 7, as the module docstring sets out.

    The Euler-Maclaurin terms of h(x) = log1p(v^2 / x^2) are
    B_2k/(2k)! * h^(2k-1)(w) = 2*C_k*(Re (w + iv)^(1-2k) - w^(1-2k)).  The error
    estimate bounds both remainders: the Euler-Maclaurin one by 4*|C_13|*w^-25,
    from |h^(26)(x)| <= 4 * 25! * x^-26, and twice Stirling's, 2*|C_14|*w^-27,
    by |C_13|*w^-25; at w = 7 the sum is 8.2e-18.
    """
    total = (w - 0.5) * math.log(w * w + v * v) - 2.0 * v * math.atan(v / w) - 2.0 * w
    z = 1.0 / complex(w, v)
    z2 = z * z
    for coef in _STIRLING_COEF:
        total += 2.0 * coef * z.real
        z *= z2
    errs.append(5.0 * _STIRLING_COEF[-1] * w ** -25)
    return total


def _tail(scale: int, v, w, s, errs: list) -> complex:
    """T(s, w) = sum_j binom(-s, j) v^(2j) zeta_H(scale*s + 2j, w); T'(0, w) when s is None.

    ``v`` is None for a family without the Hermitian offset.  For values the
    rungs j >= 1 start at w + N - 1 and their first N - 1 shifts are summed
    over j in closed form, as the module docstring sets out.
    """
    if s is None:
        return scale * (log_gamma(w) - _HALF_LOG_TWO_PI) if v is None else _herm_ds0(v, w, errs)
    total, err = _hz(scale * s, w)
    errs.append(err)
    if not v:
        return total
    v2 = v * v
    near = em_num_terms(complex(scale * s), w) - 1
    for k in range(near):
        x = v2 / ((w + k) * (w + k))
        total += cmath.exp(-scale * s * math.log(w + k)) * (cmath.exp(-s * math.log1p(x)) - 1.0)
    w_far = w + near
    c = vpow = 1.0
    for j in range(1, _SERIES_CAP):
        vpow *= v2
        if vpow == 0.0:
            break
        c *= (-s - (j - 1)) / j
        # one explicit term at w + N - 1 leaves the rung's remainder at w + N
        zj, ej = hurwitz_zeta_raw(scale * s + 2 * j, w_far, 1)
        term = c * vpow * zj
        total += term
        errs.append(abs(c) * vpow * ej)
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            errs.append(abs(term))
            break
    return total


def _family(f: Spectrum, cut: CutAngle, s, eta: bool) -> tuple:
    """(scale, v, head, tail groups) of a lattice family, refused at a pole; eta's with ``eta``.

    v = |Im a| offsets the Hermitian squares; it is None for the other families.
    """
    if eta:
        f = _eta_family(f)
    # the Hurwitz scale is the family's growth order
    scale = f.order
    herm = isinstance(f, HermQuadLattice)
    v = abs(f.a.imag) if herm else None
    if s is not None:
        j = 0.5 * (1.0 - scale * s.real)
        # zeta_H(scale*s + 2j, w) has its pole at 1; beyond j = 0 only a series meets it
        if s.imag == 0.0 and j >= 0.0 and j == round(j) and (j == 0.0 or v):
            raise PoleError(s.real, f"pole at s={s.real:.17g}")
    if eta:
        head, groups = _lattice_eta(f, cut)
    elif herm:
        head, groups = _herm(f, cut, s is None)
    else:
        head, groups = _LAYOUTS[type(f)](f, cut)
    return scale, v, head, groups


def _evaluate(spec: Spectrum, cut: CutAngle, s=None, eta: bool = False):
    """(zeta(s), error) of ``spec``, summed over ``decompose(spec)``; zeta'(0) when s is None.

    Every part takes sum m*pow_cut(head), or -sum m*log_cut(head) and, from
    zeta_H(0, w) = 1/2 - w, -i*pi*k*sum_w (1/2 - w) per tail group.  A family's
    part is scaled by its mu; the finite points come last, left out when there
    are families but no points.  With ``eta``, eta(s).  The log sum is negated
    once and the parts add from the first, so a lone finite part keeps
    -sum(m*log) bit for bit, signed zeros included.  Each head point's log is
    log|v| + i*branch_angle, with the bits of ``log_cut``: a family's head
    point takes its log-modulus and phase in line and makes one call, to
    ``branch_angle``; a ``Finite``'s own points read both from the polar form
    it keeps.
    """
    families, points = decompose(spec)
    own = isinstance(spec, Finite) and not eta
    if eta:
        points = _eta_signed(points)
    th = cut.normalized
    ns = None if s is None else -s
    log, atan2 = math.log, math.atan2
    value = err = None
    for f in families + (None,) if points or not families else families:
        scale, im, head, groups = (0, None, points, ()) if f is None else _family(f, cut, s, eta)
        total = 0.0 + 0.0j
        if f is None and own:
            for (v, m), lm, arg in zip(head, spec.log_moduli, spec.phases):
                logv = complex(lm, branch_angle(v, arg, th))
                total += m * (logv if ns is None else cmath.exp(ns * logv))
        else:
            for v, m in head:
                try:
                    lm = log(abs(v))
                except (ValueError, OverflowError):  # 0 is refused, an overflowing |v| halved
                    lm = log_modulus(v)
                logv = complex(lm, branch_angle(v, atan2(v.imag, v.real), th))
                total += m * (logv if ns is None else cmath.exp(ns * logv))
        if s is None:
            total = -total
        errs: list = []
        for sign, k, ws in groups:
            tails = 0.0
            for w in ws:
                tails += _tail(scale, im, w, s, errs)
                if s is None:
                    tails += -1j * _PI * k * (0.5 - w)
            if s is not None:
                tails *= cmath.exp(-1j * _PI * k * s)
            total += sign * tails
        part_err = 0.0
        if f is not None:
            total, part_err = f.mu * total, f.mu * sum(errs)
        value, err = (total, part_err) if value is None else (value + total, err + part_err)
    return value, err


def _eta_family(f: Spectrum) -> Lattice:
    if type(f) is not Lattice:
        raise TypeError(f"eta undefined for {type(f).__name__}")
    return f


def _lat_eta0(f: Lattice) -> complex:
    atil, _ = _normalize_log_param(f.a)
    skip_r = 1 if atil.real <= IMAG_AXIS else 0
    skip_l = 1 if (1.0 - atil).real <= IMAG_AXIS else 0
    return f.mu * (1.0 - 2.0 * atil - skip_r + skip_l)


def _certified(spec: Spectrum, theta) -> CutAngle:
    """The cut ``theta``, Agmon for ``spec`` at AGMON_EPSILON.

    An ``AgmonCertificate`` that names ``spec`` itself, at that epsilon or a
    wider one, is taken as it stands; any other cut, a certificate for another
    spectrum included, is certified by ``certify_agmon``.
    """
    if type(theta) is AgmonCertificate and theta.spectrum is spec and theta.epsilon >= AGMON_EPSILON:
        return theta
    cut = as_cut(theta)
    certify_agmon(spec, cut, AGMON_EPSILON)
    return cut


def spectral_zeta(spec: Spectrum, theta, s) -> ZetaResult:
    """zeta_theta(s, D) = sum of m_k * lambda_k^{-s} along the cut."""
    s = finite_complex(s, "s")
    cut = _certified(spec, theta)
    try:
        value, err = _evaluate(spec, cut, s)
    except OverflowError:
        raise OverflowError(f"spectral zeta of {spec} at s={s} overflows the float range") from None
    return ZetaResult(value, err)


def zeta_at_zero(spec: Spectrum, theta) -> complex:
    """zeta_theta(0, D); the total multiplicity for finite spectra."""
    return spectral_zeta(spec, theta, 0.0).value


def zeta_ds_at_zero(spec: Spectrum, theta) -> complex:
    """zeta_theta'(0, D), assembled exactly (no numerical differentiation)."""
    return _evaluate(spec, _certified(spec, theta))[0]


# ---------------------------------------------------------------------------
# eta function and invariant


def eta_function(spec: Spectrum, theta, s) -> complex:
    """Spectral asymmetry function; imaginary-axis eigenvalues are excluded."""
    s = finite_complex(s, "s")
    return _evaluate(spec, _certified(spec, theta), s, eta=True)[0]


def _eta_at_zero(spec: Spectrum) -> complex:
    """eta_theta(0, D); branch-free, hence independent of the cut.

    Families give the closed form, the points their signed count; summed from the first.
    """
    families, points = decompose(spec)
    terms = [_lat_eta0(_eta_family(f)) for f in families]
    if points or not terms:
        terms.append(complex(sum(m for _, m in _eta_signed(points))))
    return functools.reduce(operator.add, terms)


def eta_invariant(spec: Spectrum, counts: tuple[int, int] | None = None) -> complex:
    """(eta(0, D) + m_+ - m_-) / 2 — the sign-refined eta invariant.

    ``counts`` is ``imaginary_axis_counts(spec)``, (m_+, m_-), when the caller has it.
    """
    m_plus, m_minus = imaginary_axis_counts(spec) if counts is None else counts
    return 0.5 * (_eta_at_zero(spec) + m_plus - m_minus)
