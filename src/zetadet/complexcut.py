"""Branch-cut complex arithmetic along a ray.

A spectral cut is the ray R_theta = {rho * e^{i*theta} : rho >= 0}.  The cut
logarithm ``log_cut`` returns the branch with imaginary part in the open
window (theta, theta + 2*pi); ``pow_cut`` builds the complex powers
lambda^{-s} used by spectral zeta functions.  ``log_cut`` is log|lambda| plus
i times its polar core ``branch_angle``, which places a given phase in the
window and refuses a point on the cut; it is the one branch rule.  A sum over
many points reads the cut angle once, takes each point's log|lambda| and arg
lambda (a finite spectrum keeps both), and calls the core once per point.  A
cut angle is reduced into [-2*pi, 2*pi), and refused where the floats cannot
resolve it to ``AGMON_EPSILON``.  Where |lambda| overflows, log|lambda| is
log|lambda/2| + log 2 (``log_modulus``).  ``log_cut`` and ``pow_cut`` refuse
non-finite input with ``finite_complex``.
"""

from __future__ import annotations

import cmath
import math

from .config import AGMON_EPSILON
from .errors import OnCutError, ZeroInputError

TAU = 2.0 * math.pi
LOG_2 = math.log(2.0)


def _wrap_cut(theta: float) -> float:
    """Reduce an angle into [-2*pi, 2*pi) by a multiple of 4*pi.

    The window is two turns wide on purpose: theta and theta + 2*pi denote
    different branches and must stay distinguishable.  Raises ValueError for an
    angle whose float spacing exceeds AGMON_EPSILON: NaN, +-inf, |theta| >= 2**23.
    """
    if -TAU <= theta < TAU:
        return theta
    if not math.ulp(theta) <= AGMON_EPSILON:
        raise ValueError(f"cut angle {theta}: the float spacing {math.ulp(theta):.3g} exceeds "
                         f"agmon_epsilon {AGMON_EPSILON:.3g}, so its direction is unresolved")
    t = theta - 2.0 * TAU * math.floor((theta + TAU) / (2.0 * TAU))
    # floating-point guard: the quotient may round up past a whole window
    return t + 2.0 * TAU if t < -TAU else t


class CutAngle:
    """A spectral-cut direction, kept as given plus a normalized key; cuts compare by the key."""

    __slots__ = ("raw", "normalized")

    def __init__(self, raw: float):
        self.raw = raw
        self.normalized = _wrap_cut(float(raw))

    def shifted(self, delta: float) -> "CutAngle":
        return CutAngle(self.normalized + delta)

    def doubled(self) -> "CutAngle":
        return CutAngle(2.0 * self.normalized)

    def __float__(self) -> float:
        return self.normalized

    def __repr__(self) -> str:
        return f"{type(self).__name__}(raw={self.raw!r}, normalized={self.normalized!r})"

    def __eq__(self, other):
        if not isinstance(other, CutAngle):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash((self.normalized,))


def finite_complex(value, name: str) -> complex:
    """complex(value), refused with a ValueError naming ``name`` unless finite."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} {z} is not finite")
    return z


def as_cut(theta) -> CutAngle:
    return theta if isinstance(theta, CutAngle) else CutAngle(float(theta))


def ang_dist(alpha: float, beta: float) -> float:
    """Angular distance between two directions, in [0, pi]."""
    d = math.fmod(alpha - beta, TAU)
    if d < 0.0:
        d += TAU
    e = TAU - d
    return e if e < d else d


def phase(z: complex) -> float:
    """Argument of z in (-pi, pi]; tolerates subnormal components."""
    return math.atan2(z.imag, z.real)


def branch_angle(lam: complex, arg: float, th: float) -> float:
    """Im log_cut(lam, th) from arg = phase(lam), th a normalized cut angle: the polar core.

    Shifts arg by ceil((th - arg) / 2*pi) turns into (th, th + 2*pi).  Raises
    OnCutError, naming the nonzero point lam, when it lies on the cut ray: when
    ``ang_dist(arg, th)`` is 0, that is, arg - th reduces to 0 or to a negative
    remainder that rounds away against 2*pi.
    """
    d = math.fmod(arg - th, TAU)
    if d == 0.0 or d < 0.0 and d + TAU == TAU:
        raise OnCutError(f"{lam} lies on the cut ray at angle {th}")
    alpha = arg + TAU * math.ceil((th - arg) / TAU)
    # floating-point guard: keep alpha strictly inside (th, th + 2*pi)
    if alpha <= th:
        alpha += TAU
    elif alpha > th + TAU:
        alpha -= TAU
    return alpha


def log_modulus(lam: complex) -> float:
    """log|lam| of a finite lam, as log|lam/2| + log 2 where |lam| overflows; 0 is refused."""
    if lam == 0:
        raise ZeroInputError("log_cut requires a nonzero argument")
    try:
        return math.log(abs(lam))
    except OverflowError:
        return math.log(abs(0.5 * lam)) + LOG_2


def log_cut(lam: complex, theta) -> complex:
    """Branch of log(lam) with imaginary part in (theta, theta + 2*pi).

    Raises ZeroInputError for lam = 0, OnCutError when lam lies on the cut ray
    and ValueError when lam is not finite.
    """
    lam = finite_complex(lam, "lam")
    th = as_cut(theta).normalized
    return complex(log_modulus(lam), branch_angle(lam, phase(lam), th))


def pow_cut(lam: complex, s: complex, theta) -> complex:
    """lambda^{-s} along the cut: exp(-s * log_cut(lam, theta)); s must be finite."""
    return cmath.exp(-finite_complex(s, "s") * log_cut(lam, theta))
