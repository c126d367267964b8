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

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_RADIUS = 12.0


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

    Uses the argument-shift recursion log G(z) = log G(z+1) - log z until the
    Stirling series applies; for Re(z) > 0 every shift stays in the right
    half-plane, so principal logs add without branch corrections.
    """
    z = complex(z)
    shift = 0.0 + 0.0j
    while abs(z) < _STIRLING_RADIUS:
        shift += cmath.log(z)
        z += 1.0
    logz = cmath.log(z)
    result = (z - 0.5) * logz - z + _HALF_LOG_TWO_PI
    zinv = 1.0 / z
    zinv2 = zinv * zinv
    frac = zinv                     # z^{-(2k-1)} at k = 1
    for coef in _STIRLING_COEF:
        result += coef * frac
        frac *= zinv2
    return result - shift
