"""Numerical policy: tolerances, method constants and kernel parameters.

``Tolerances`` holds the thresholds a check reports or asserts; a job may
override each of them.  Everything else is a module constant that no job can
set: the method constants that fix how T_alpha is built (the Agmon cone, the
imaginary axis, the acyclic margin, the digits that merge eigenvalues), the
caps, and the continuation-kernel parameters.  Tests and the CLI reference
these names instead of scattered literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    """The thresholds a check reports or asserts; each is a per-job setting."""

    identity_residual: float = 1e-9    # determinant/eta identities
    finite_arithmetic: float = 1e-10   # exact finite-spectrum bookkeeping
    trs_residual: float = 1e-6         # torsion vs Ray-Singer comparisons
    variation_residual: float = 1e-6   # eta / Arg variation formulas
    reality: float = 1e-10             # imaginary parts required to vanish

    def with_overrides(self, **kwargs) -> "Tolerances":
        """A copy with the given fields replaced; ``self`` itself when none are given."""
        return replace(self, **kwargs) if kwargs else self


DEFAULT_TOLERANCES = Tolerances()

# Method constants: fixed choices of the construction, not per-job settings.
AGMON_EPSILON = 1e-9           # half-angle of the eigenvalue-free cone certified about a cut
IMAG_AXIS = 1e-12              # |Re| at or below this counts as purely imaginary
ACYCLIC_DISTANCE = 1e-8        # least distance of a log parameter to Z
MERGE_SIGNIFICANT_DIGITS = 12  # significant digits of the keys that merge and pair eigenvalues

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

# Minimum ODE steps for monodromy integration, and the points of the trapezoid
# grid that integrates the trace of a connection family's derivative over x.
MIN_ODE_STEPS = 64
FAMILY_GRID = 256


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
