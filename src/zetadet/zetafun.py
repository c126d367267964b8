"""Spectral zeta and eta functions via analytic continuation.

A lattice family ({a + n}, its squares {(a + n)^2}, the Hermitian
{|a + n|^2}) is two half-lines, the points q + m, m >= 0, of q = a~ and of
q = 1 - a~ (Re a~ in (0, 1]); ``_halves`` gives both origins, the second as
(1 - n0) - a, so that a just below an integer keeps its distance to it.
{a + n} negates its second half, the squared families square both.  A half
has zeta_H(0, q) = 1/2 - q and zeta_H'(0, q) = log Gamma(q) - log(2*pi)/2.
zeta(s), eta(s), zeta'(0) and eta(0) all read ``_halves``, and the zeta(0)
of a square is exactly 0 per family, since its origins sum to 1.

One evaluator sums zeta(s) and eta(s) over every part of
``spectrum.decompose(spec)``: a head of ``(point, weight)`` pairs near the
origin, summed with exact cut branches, and tail groups ``(sign, k, (w, ...))``
of far tails with constant winding.  A family's part is its layout, the heads
of both halves at weight m = 1 and then their tails, scaled by its mu; the
finite points are one more head, weighted by their multiplicities, with no
tails and no mu.  The Hurwitz scale is the growth order, 1 for {a + n} and 2
for the squares, and v^2 is (Im a)^2 for the Hermitian family and 0
otherwise.  zeta(s) is

    sum m * lambda^{-s} + sum sign * exp(-i*pi*k*s) * sum_w T(s, w),
    T(s, w) = sum_j binom(-s, j) * v^(2j) * zeta_H(scale*s + 2j, w),

with its error estimate.  With N the Euler-Maclaurin shift length of
zeta_H(scale*s, w), the shifts k < N - 1 of the rungs j >= 1 sum over j in
closed form,

    T(s, w) = zeta_H(scale*s, w) + sum_{k<N-1} (w + k)^{-scale*s} * ((1 + x_k)^{-s} - 1)
              + sum_{j>=1} binom(-s, j) * v^(2j) * zeta_H(scale*s + 2j, w + N - 1),

with x_k = v^2 / (w + k)^2, so every rung keeps its remainder at w + N and the
series converges at the ratio v^2 / (w + N - 1)^2; its head ends past 2|Im a|.

zeta'(0) is exact and one pass per family, with no layout.  A half of {a + n}
or {(a + n)^2} sums -log over its head, m < 1 + ceil(need), where
``_tail_buffer`` proves the winding k of the rest constant, and adds its tail
at w = q + buf,

    scale * (log Gamma(w) - log(2*pi)/2) - i*pi*k*(1/2 - w);

``log_gamma`` sums the points between w and its Stirling radius with
principal logs.  The Hermitian head holds positive reals, whose branch angle
is one number for the whole head (0 at the cut -pi), so it is a sum of real
logs; its tail starts at w >= 7, whatever v, and

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


def _tail_buffer(q: complex, gap: float, halve: bool = False, least: int = 4) -> int:
    """Terms to pull out before the winding of q + m is provably constant.

    That is max(least, 1 + explicit_terms(max(1 - Re q, |Im q| / tan(0.9 * g) - Re q))),
    with g = min(gap, 1.45), halved with ``halve``; the tail then starts at
    Re w >= 2.  The values keep heads of at least 4 points; zeta'(0) passes
    ``least`` 0.  Every evaluation of a family calls it, so min and max are
    written out as comparisons, with their results.
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
    return n if n > least else least


# ---------------------------------------------------------------------------
# layouts: each lattice family as a head of (point, weight) pairs plus Hurwitz tail groups


def _halves(f: Spectrum) -> tuple:
    """The origins q of a family's two half-lines q + m: a~ and 1 - a~, taken as (1 - n0) - a."""
    atil, n0 = _normalize_log_param(f.a)
    return atil, (1 - n0) - f.a


def _eta_signed(points) -> list:
    """eta's sign rule: (v, m) for Re v > 0, (-v, -m) for Re v < 0; the imaginary axis left out."""
    signed = []
    for v, m in points:
        if v.real > IMAG_AXIS:
            signed.append((v, m))
        elif v.real < -IMAG_AXIS:
            signed.append((-v, -m))
    return signed


def _layout(f: Spectrum, th: float, eta: bool) -> tuple:
    """(head, tail groups) of a lattice family at the normalized cut ``th``; eta's with ``eta``.

    The heads of both halves come first.  {a + n} negates its second half,
    whose tail lies at pi; for eta the sign rule takes the head and that tail
    is negated onto the tail at 0, with sign -1.  The squared families share
    one group at 0; the Hermitian one buffers for its binomial series and has
    real tail points.
    """
    gap, k = ang_dist(th, 0.0), 2 * _tail_winding(0.0, th)
    square, herm = f.order == 2, type(f) is HermQuadLattice
    head, ws = [], []
    for q, left in zip(_halves(f), (False, not square)):
        if herm:
            # the binomial series needs (Im q / (Re q + buf))^2 < 1/4 and Re q + buf >= 1
            buf = max(4, explicit_terms(2.0 * abs(q.imag) + 1.0 - q.real) + 1)
            head += [(abs(q + m) ** 2, 1) for m in range(buf)]
            ws.append(q.real + buf)
            continue
        buf = _tail_buffer(q, ang_dist(th, _PI) if left and not eta else gap, square)
        head += [((q + m) ** 2 if square else -(q + m) if left else q + m, 1) for m in range(buf)]
        ws.append(q + buf)
    if square:
        return head, ((1, k, ws),)
    if eta:
        return _eta_signed(head), ((1, k, ws[:1]), (-1, k, ws[1:]))
    return head, ((1, k, ws[:1]), (1, 2 * _tail_winding(_PI, th) + 1, ws[1:]))


# ---------------------------------------------------------------------------
# the evaluator


def _herm_tail_ds0(v: float, w: float) -> float:
    """T'(0, w) of the Hermitian tail, w >= 7, as the module docstring sets out.

    The Euler-Maclaurin terms of h(x) = log1p(v^2 / x^2) are
    B_2k/(2k)! * h^(2k-1)(w) = 2*C_k*(Re (w + iv)^(1-2k) - w^(1-2k)).  Both
    remainders are bounded together: the Euler-Maclaurin one by 4*|C_13|*w^-25,
    from |h^(26)(x)| <= 4 * 25! * x^-26, and twice Stirling's, 2*|C_14|*w^-27,
    by |C_13|*w^-25; at w = 7 the sum is 8.2e-18.
    """
    total = (w - 0.5) * math.log(w * w + v * v) - 2.0 * v * math.atan(v / w) - 2.0 * w
    z = 1.0 / complex(w, v)
    z2 = z * z
    for coef in _STIRLING_COEF:
        total += 2.0 * coef * z.real
        z *= z2
    return total


def _tail(scale: int, v, w, s, errs: list) -> complex:
    """T(s, w) = sum_j binom(-s, j) v^(2j) zeta_H(scale*s + 2j, w).

    ``v`` is None for a family without the Hermitian offset.  The rungs
    j >= 1 start at w + N - 1 and their first N - 1 shifts are summed over j
    in closed form, as the module docstring sets out.
    """
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


def _family(f: Spectrum, cut: CutAngle, s: complex, eta: bool) -> tuple:
    """(scale, v, head, tail groups) of a lattice family, refused at a pole; eta's with ``eta``.

    v = |Im a| offsets the Hermitian squares; it is None for the other families.
    """
    if eta:
        f = _eta_family(f)
    # the Hurwitz scale is the family's growth order
    scale = f.order
    herm = isinstance(f, HermQuadLattice)
    v = abs(f.a.imag) if herm else None
    j = 0.5 * (1.0 - scale * s.real)
    # zeta_H(scale*s + 2j, w) has its pole at 1; beyond j = 0 only a series meets it
    if s.imag == 0.0 and j >= 0.0 and j == round(j) and (j == 0.0 or v):
        raise PoleError(s.real, f"pole at s={s.real:.17g}")
    head, groups = _layout(f, cut.normalized, eta)
    return scale, v, head, groups


def _head_sum(head, th: float, ns, polar=None) -> complex:
    """sum m * lambda^{-s} over the (lambda, m) pairs of ``head``; sum m * log lambda when ns = -s is None.

    Each log is log|lambda| + i*branch_angle, with the bits of ``log_cut``: a
    point takes its log-modulus and phase in line, or from ``polar``, the
    (log_moduli, phases) a ``Finite`` keeps, and makes one call, to
    ``branch_angle``.
    """
    total = 0.0 + 0.0j
    if polar is not None:
        for (v, m), lm, arg in zip(head, *polar):
            logv = complex(lm, branch_angle(v, arg, th))
            total += m * (logv if ns is None else cmath.exp(ns * logv))
        return total
    log, atan2 = math.log, math.atan2
    for v, m in head:
        try:
            lm = log(abs(v))
        except (ValueError, OverflowError):  # 0 is refused, an overflowing |v| halved
            lm = log_modulus(v)
        logv = complex(lm, branch_angle(v, atan2(v.imag, v.real), th))
        total += m * (logv if ns is None else cmath.exp(ns * logv))
    return total


def _evaluate(spec: Spectrum, cut: CutAngle, s: complex, eta: bool = False):
    """(zeta(s), error) of ``spec``, summed over ``decompose(spec)``; eta(s) with ``eta``.

    Every part takes sum m*pow_cut(head) and its tail groups.  A family's part
    is scaled by its mu; the finite points come last, left out when there are
    families but no points.  The parts add from the first.
    """
    families, points = decompose(spec)
    polar = (spec.log_moduli, spec.phases) if isinstance(spec, Finite) and not eta else None
    if eta:
        points = _eta_signed(points)
    th = cut.normalized
    value = err = None
    for f in families + (None,) if points or not families else families:
        if f is None:
            total, part_err = _head_sum(points, th, -s, polar), 0.0
        else:
            scale, im, head, groups = _family(f, cut, s, eta)
            total = _head_sum(head, th, -s)
            errs: list = []
            for sign, k, ws in groups:
                tails = 0.0
                for w in ws:
                    tails += _tail(scale, im, w, s, errs)
                tails *= cmath.exp(-1j * _PI * k * s)
                total += sign * tails
            total, part_err = f.mu * total, f.mu * sum(errs)
        value, err = (total, part_err) if value is None else (value + total, err + part_err)
    return value, err


def _family_ds0(f: Spectrum, th: float) -> complex:
    """zeta'(0) of one lattice family at the normalized cut ``th``, scaled by its mu.

    One pass over the two halves: each sums -log over its head and adds its
    log Gamma tail, as the module docstring sets out.
    """
    if type(f) is HermQuadLattice:
        return _herm_ds0(f, th)
    atil, qm = _halves(f)
    scale = f.order
    square = scale == 2
    gap, k = ang_dist(th, 0.0), 2 * _tail_winding(0.0, th)
    # {a + n} negates its second half, whose tail lies at pi
    second = (qm, gap, k, False) if square else (qm, ang_dist(th, _PI), 2 * _tail_winding(_PI, th) + 1, True)
    log, atan2 = math.log, math.atan2
    total = 0.0 + 0.0j
    for q, gap, k, negate in ((atil, gap, k, False), second):
        buf = _tail_buffer(q, gap, square, 0)
        for m in range(buf):
            v = q + m
            if square:
                v = v * v
            elif negate:
                v = -v
            try:
                lm = log(abs(v))
            except (ValueError, OverflowError):  # 0 is refused, an overflowing |v| halved
                lm = log_modulus(v)
            total -= complex(lm, branch_angle(v, atan2(v.imag, v.real), th))
        w = q + buf
        total += scale * (log_gamma(w) - _HALF_LOG_TWO_PI) - 1j * _PI * k * (0.5 - w)
    return f.mu * total


def _herm_ds0(f: HermQuadLattice, th: float) -> complex:
    """zeta'(0) of {|a + n|^2} at the normalized cut ``th``, scaled by its mu.

    Every head point is a positive real x, so its log is log x plus the one
    branch angle of the positive reals, 0 at the cut -pi: the head is a sum
    of real logs, and it ends where ``_herm_tail_ds0`` may start.
    """
    v = abs(f.a.imag)
    log = math.log
    head = tails = wsum = 0.0
    n = 0
    for q in _halves(f):
        buf = explicit_terms(_HERM_DS0_START - q.real)
        for m in range(buf):
            x = abs(q + m) ** 2
            head += log(x) if x else log_modulus(x)
        n += buf
        w = q.real + buf
        tails += _herm_tail_ds0(v, w)
        wsum += 0.5 - w
    k = 2 * _tail_winding(0.0, th)
    return f.mu * complex(-head + tails, -n * branch_angle(1.0, 0.0, th) - _PI * k * wsum)


def _eta_family(f: Spectrum) -> Lattice:
    if type(f) is not Lattice:
        raise TypeError(f"eta undefined for {type(f).__name__}")
    return f


def _lat_eta0(f: Lattice) -> complex:
    """zeta_H(0, a~) - zeta_H(0, 1 - a~), less each origin the sign rule leaves on the imaginary axis."""
    atil, qm = _halves(f)
    return f.mu * (1.0 - 2.0 * atil - (atil.real <= IMAG_AXIS) + (qm.real <= IMAG_AXIS))


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
    """zeta_theta'(0, D), assembled exactly (no numerical differentiation).

    The families' parts come first, each from ``_family_ds0``, then
    -sum m * log lambda over the finite points, left out when there are
    families but no points; a lone finite part is -sum(m*log) bit for bit,
    signed zeros included.
    """
    th = _certified(spec, theta).normalized
    families, points = decompose(spec)
    value = None
    for f in families:
        part = _family_ds0(f, th)
        value = part if value is None else value + part
    if points or not families:
        polar = (spec.log_moduli, spec.phases) if isinstance(spec, Finite) else None
        part = -_head_sum(points, th, None, polar)
        value = part if value is None else value + part
    return value


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
