"""Numerical policy: tolerances and continuation-kernel parameters.

Every tolerance used by the library lives here so that tests and the CLI
reference named constants instead of scattered literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    # branch selection
    agmon_epsilon: float = 1e-9        # default spectrum-free half-angle certified
    # spectrum classification
    imag_axis: float = 1e-12           # |Re| below this counts as purely imaginary
    acyclic_distance: float = 1e-8     # minimum distance of a log parameter to Z
    merge_significant_digits: int = 12  # rounding used when merging squared values
    # identity residuals
    identity_residual: float = 1e-9    # determinant/eta identities
    finite_arithmetic: float = 1e-10   # exact finite-spectrum bookkeeping
    trs_residual: float = 1e-6         # torsion vs Ray-Singer comparisons
    variation_residual: float = 1e-6   # eta / Arg variation formulas
    reality: float = 1e-10             # imaginary parts required to vanish

    def with_overrides(self, **kwargs) -> "Tolerances":
        """A copy with the given fields replaced; ``self`` itself when none are given."""
        return replace(self, **kwargs) if kwargs else self


DEFAULT_TOLERANCES = Tolerances()

# Euler-Maclaurin policy: number of explicitly summed terms and the number of
# Bernoulli correction terms.  The remainder is estimated by the first omitted
# correction term.
EM_BERNOULLI_ORDER = 12
EM_MIN_TERMS = 20

# Cap on the terms any sum adds up one by one (tail buffers, Euler-Maclaurin
# shifts).  A job needing more is refused rather than left running; the cap is
# not a tolerance, so no job can raise it.
MAX_EXPLICIT_TERMS = 100_000

# Cap on the points of a scan grid, and on each of its axes, checked before the
# grid is built; a constant like the one above.
MAX_SCAN_POINTS = 100_000

# Finite-difference step ceiling for holomorphy scans, and the least distance
# of a ``holomorphy_scan`` grid point to the integers.
CR_MAX_STEP = 1e-4
CR_MIN_INTEGER_DISTANCE = 0.05

# Minimum ODE steps for monodromy integration and minimum sampling grid for
# connection families.
MIN_ODE_STEPS = 64
MIN_FAMILY_GRID = 64

# Empirically frozen global sign relating the torsion/Ray-Singer defect to the
# imaginary part of the Arg class on the circle (orientation convention).
ARG_PAIRING_SIGN = -1.0


def em_num_terms(s: complex, q: complex) -> int:
    """Shift length N for the Euler-Maclaurin evaluation of the Hurwitz zeta.

    N also sets the remainder point w + N of every rung of the Hermitian
    series in ``zetafun._tail``: its first N - 1 shifts sum in closed form.
    """
    return max(EM_MIN_TERMS, explicit_terms(10.0 + abs(s.imag) + abs(q)))


def explicit_terms(need: float) -> int:
    """ceil(need), refused past MAX_EXPLICIT_TERMS (NaN and infinity included)."""
    if not need <= MAX_EXPLICIT_TERMS:
        raise DomainError(f"{need:.3g} terms to sum one by one exceed the cap of {MAX_EXPLICIT_TERMS}")
    return math.ceil(need)
