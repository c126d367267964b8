"""Exception types shared across the package."""

from __future__ import annotations


class ZetaDetError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroInputError(ZetaDetError):
    """A nonzero complex number was required."""


class OnCutError(ZetaDetError):
    """The point lies on the spectral-cut ray."""


class DomainError(ZetaDetError):
    """Argument outside the admissible domain of a continuation kernel."""


class PoleError(ZetaDetError):
    """Evaluation was requested at a pole of the continued function."""

    def __init__(self, s: complex, message: str | None = None):
        self.s = s
        super().__init__(message or f"pole at s={s}")


class NotAgmonError(ZetaDetError):
    """The cut direction has no spectrum-free angular neighborhood."""

    def __init__(self, witness=None, message: str | None = None, component=None):
        self.witness = witness
        self.component = component
        detail = message or "cut direction is not Agmon for the spectrum"
        if witness is not None:
            detail += f" (witness eigenvalue {witness})"
        if component is not None:
            detail += f" (graded component {component})"
        super().__init__(detail)


class NonAcyclicError(ZetaDetError):
    """The circle model is not acyclic (a log parameter is an integer)."""


class EigenFailureError(ZetaDetError):
    """The eigenvalue solver did not converge."""


class HypothesisViolatedError(ZetaDetError):
    """A theorem hypothesis sector, the directions (lo, hi] of ``sector``, contains an eigenvalue."""

    def __init__(self, sector: tuple[float, float], witness, message: str | None = None):
        self.sector = sector
        self.witness = witness
        lo, hi = sector
        super().__init__(message or f"eigenvalue {witness} lies in the hypothesis sector ({lo}, {hi}]")


class NotSymmetricError(ZetaDetError):
    """The spectrum is not symmetric about the real axis."""


class RealityViolatedError(ZetaDetError):
    """A quantity required to be real has a non-negligible imaginary part."""

    def __init__(self, quantity: str, imag_part: float, message: str | None = None):
        self.quantity = quantity
        self.imag_part = imag_part
        super().__init__(
            message or f"{quantity} should be real, imaginary part {imag_part:.3e}"
        )


class InfiniteCrossingError(ZetaDetError):
    """A lattice tail lies inside the swept sector; the crossing count diverges."""


class SchemaError(ZetaDetError):
    """A job configuration failed schema validation."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)
