"""Exception taxonomy shared by every module.

All failures raised on purpose by this package derive from FrontlabError,
so callers can tell deliberate rejections from genuine bugs. Each class
carries the exit code the CLI returns for it: 2 (invalid input) for
DomainError and RegimeMismatch, 4 for InfeasibleSelection, 3 for the rest.
"""

from __future__ import annotations


class FrontlabError(Exception):
    """Base class for all deliberate failures."""
    exit_code = 3


class DomainError(FrontlabError):
    """Arguments outside the mathematical domain of an operation."""
    exit_code = 2


class InfeasibleSelection(FrontlabError):
    """No admissible constant selection; message names the failing inequality."""
    exit_code = 4


class RegimeMismatch(FrontlabError):
    """Operation requested for parameters whose regime does not support it."""
    exit_code = 2


class BlowUp(FrontlabError):
    """Pointwise growth solution reached its blow-up time."""

    def __init__(self, message: str, t_blow: float | None = None):
        super().__init__(message)
        self.t_blow = t_blow


class StabilityFailure(FrontlabError):
    """A time step broke down: a zero, infinite or NaN diffusivity, a
    non-finite entry in its system, a failed solve or a non-finite result."""


class DomainExhausted(FrontlabError):
    """Tracked front got too close to the right edge of the grid."""


class EmptyTrace(FrontlabError):
    """Level-set tracking produced no crossings."""


class DegenerateFit(FrontlabError):
    """Not enough usable samples (or non-positive data) for a rate fit."""


class NonTermination(FrontlabError):
    """Phase-plane trajectory triggered no terminal event before y_max."""


class SearchExhausted(FrontlabError):
    """Speed bisection/halving hit its iteration cap without a certificate."""


class TransformError(FrontlabError):
    """Profile change of variables is not applicable to the given outcome."""
