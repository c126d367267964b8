"""Continuation kernels.

Two hot leaf routines live here: the Euler-Maclaurin evaluation of the
Hurwitz zeta function and the Stirling-series principal-branch log-Gamma.
"""

from __future__ import annotations

import cmath
import math

from .config import EM_BERNOULLI_ORDER

# Even-index Bernoulli numbers B_2, B_4, ..., B_26 as exact (numerator, denominator) pairs.
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
    (8553103, 6),
)

# B_{2k} / (2k)! for the Euler-Maclaurin correction terms; integer true division
# rounds the exact quotient once.
_EM_COEF = tuple(
    p / (q * math.factorial(2 * (k + 1))) for k, (p, q) in enumerate(_BERNOULLI)
)

# B_{2k} / (2k * (2k - 1)) for the Stirling series.
_STIRLING_COEF = tuple(
    p / (q * (2 * (k + 1)) * (2 * (k + 1) - 1)) for k, (p, q) in enumerate(_BERNOULLI)
)

_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12, _C13 = _STIRLING_COEF

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# from |z| = 7 on the 13-term Stirling series truncates below 1e-18 (C_14 * 7^-27 = 5.5e-19)
_STIRLING_RADIUS = 7.0


def hurwitz_zeta_raw(s: complex, q: complex, n_terms: int):
    """Euler-Maclaurin continuation of sum_{n>=0} (n+q)^{-s}.

    Requires Re(q) > 0 and s != 1 (enforced by the caller).  ``n_terms``
    terms are summed explicitly; ``EM_BERNOULLI_ORDER`` Bernoulli corrections
    follow the integral and half terms.  Returns ``(value, error_estimate)``
    where the estimate is the magnitude of the first omitted correction term.
    """
    s = complex(s)
    q = complex(q)
    total = 0.0 + 0.0j
    for k in range(n_terms):
        total += cmath.exp(-s * cmath.log(q + k))
    w = q + n_terms
    logw = cmath.log(w)
    w_minus_s = cmath.exp(-s * logw)
    total += w * w_minus_s / (s - 1.0)
    total += 0.5 * w_minus_s
    # Bernoulli corrections: B_{2j}/(2j)! * s(s+1)...(s+2j-2) * w^{-s-2j+1}
    winv2 = 1.0 / (w * w)
    poch = s                       # rising factorial s^(2j-1)
    wpow = w_minus_s / w           # w^{-s-1}, i.e. exponent -s-2j+1 at j=1
    for j in range(1, EM_BERNOULLI_ORDER + 1):
        total += _EM_COEF[j - 1] * poch * wpow
        poch *= (s + (2 * j - 1)) * (s + 2 * j)
        wpow *= winv2
    err = abs(_EM_COEF[EM_BERNOULLI_ORDER] * poch * wpow)
    return total, err


def log_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma for Re(z) > 0.

    Uses the argument-shift recursion log G(z) = log G(z+1) - log z until
    |z| >= ``_STIRLING_RADIUS``, then the Stirling series by Horner's rule in
    z^-2.  For Re(z) > 0 every shift stays in the right half-plane, so
    principal logs add without branch corrections; two shifts share one log,
    log(z * (z + 1)), since their arguments add up inside (-pi, pi).
    """
    z = complex(z)
    shift = 0.0
    while abs(z) < _STIRLING_RADIUS:
        z1 = z + 1.0
        if abs(z1) >= _STIRLING_RADIUS:
            shift += cmath.log(z)
            z = z1
            break
        shift += cmath.log(z * z1)
        z = z1 + 1.0
    zinv = 1.0 / z
    u = zinv * zinv
    series = zinv * (_C1 + u * (_C2 + u * (_C3 + u * (_C4 + u * (_C5 + u * (_C6 + u * (
        _C7 + u * (_C8 + u * (_C9 + u * (_C10 + u * (_C11 + u * (_C12 + u * _C13))))))))))))
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + series - shift
