"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that experiment drivers can map breaches to exit codes without string
matching.
"""

from __future__ import annotations

__all__ = [
    "SemiwkbError",
    "GridMismatchError",
    "BandwidthError",
    "BoundaryMassError",
    "CausticError",
    "CausticDomainError",
    "NotHyperbolicError",
    "DegenerateLinesError",
    "OutOfDomainError",
    "ConvergenceError",
    "StepSizeError",
    "UnsupportedOracleError",
    "InvalidInputError",
    "SpecError",
    "SpecNotFoundError",
]


class SemiwkbError(Exception):
    """Base class for all package errors."""


class GridMismatchError(SemiwkbError):
    """Two grid-bound objects do not share the same grid or hbar."""


class BandwidthError(SemiwkbError):
    """Requested momentum content exceeds what the grid can represent."""


class BoundaryMassError(SemiwkbError):
    """State mass at a domain or window boundary exceeds its threshold."""


class CausticError(SemiwkbError):
    """The transported manifold developed a fold.

    Carries the earliest detected time and seed position so the caller can
    report where the projection onto position space stopped being injective.
    """

    def __init__(self, t: float, x: float, message: str | None = None):
        self.t = float(t)
        self.x = float(x)
        if message is None:
            message = f"caustic detected at t={t:.6g} near seed x={x:.6g}"
        super().__init__(message)


class CausticDomainError(SemiwkbError):
    """A closed-form expression was queried outside its caustic-free range."""


class NotHyperbolicError(SemiwkbError):
    """The one-period tangent map has no eigenvalue off the unit circle."""


class DegenerateLinesError(SemiwkbError):
    """Lagrangian line configuration violates the transversality premises."""


class OutOfDomainError(SemiwkbError):
    """A query point lies outside the tabulated image of the transport map."""


class ConvergenceError(SemiwkbError):
    """An iterative refinement failed to reach its tolerance."""


class StepSizeError(SemiwkbError):
    """Refining a reference's steps leaves a gap above its tolerance."""


class UnsupportedOracleError(SemiwkbError):
    """No closed form is available for the requested model/quantity pair."""


class InvalidInputError(SemiwkbError, ValueError):
    """An argument lies outside the domain the computation accepts."""


class SpecError(SemiwkbError, ValueError):
    """An experiment spec or spec file is malformed."""


class SpecNotFoundError(SpecError, FileNotFoundError):
    """A spec file cannot be read."""
