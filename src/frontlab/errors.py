"""Exception taxonomy shared by every module.

All failures raised on purpose by this package derive from FrontlabError,
so callers (and the CLI exit-code mapping) can tell deliberate rejections
from genuine bugs.
"""

from __future__ import annotations


class FrontlabError(Exception):
    """Base class for all deliberate failures."""


class DomainError(FrontlabError):
    """Arguments outside the mathematical domain of an operation."""


class InfeasibleSelection(FrontlabError):
    """No admissible constant selection; message names the failing inequality."""


class RegimeMismatch(FrontlabError):
    """Operation requested for parameters whose regime does not support it."""


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
