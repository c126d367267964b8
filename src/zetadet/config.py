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
from collections import namedtuple

from .errors import DomainError


class Tolerances(namedtuple(
    "Tolerances",
    "identity_residual finite_arithmetic trs_residual variation_residual reality",
    defaults=(1e-9, 1e-10, 1e-6, 1e-6, 1e-10),
)):
    """The thresholds a check reports or asserts; each is a per-job setting.

    ``identity_residual``: determinant/eta identities; ``finite_arithmetic``:
    exact finite-spectrum bookkeeping; ``trs_residual``: torsion vs Ray-Singer
    comparisons; ``variation_residual``: eta / Arg variation formulas;
    ``reality``: imaginary parts required to vanish.
    """

    __slots__ = ()

    def with_overrides(self, **kwargs) -> "Tolerances":
        """A copy with the given fields replaced; ``self`` itself when none are given."""
        return self._replace(**kwargs) if kwargs else self


DEFAULT_TOLERANCES = Tolerances()

# Method constants: fixed choices of the construction, not per-job settings.
AGMON_EPSILON = 1e-9           # half-angle of the eigenvalue-free cone certified about a cut
# Least width upper + pi/2 of the wedge (-pi/2, upper) that ``pick_det_eta_cut``
# bisects: at or below it the picker refuses.  The picked cut then clears every
# eigenvalue direction of D, on both of its rays, by more than 2 * AGMON_EPSILON,
# and of D^2 at twice the cut by more than 4 * AGMON_EPSILON, so both are
# certified at AGMON_EPSILON without a scan.
CUT_PICK_WIDTH = 4.0 * AGMON_EPSILON
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
