"""Exception types raised across the package.

Every error the library raises deliberately derives from
:class:`GausschainError`, so callers (and the CLI) can separate toolkit
failures from programming mistakes.
"""

from __future__ import annotations


class GausschainError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GausschainError, ValueError):
    """Invalid physical or structural parameters."""


class SiteIndexError(GausschainError, IndexError):
    """Site, cell, or mode index that is not a whole number in its 1-based range."""


class StabilityError(GausschainError):
    """Relaxation spectrum not strictly decaying (some Re beta <= 0)."""


class EnvelopeOverflowError(GausschainError):
    """Envelope, doubling power, correlator or occupation not representable in
    double precision: it overflows, or a correlator's peak is subnormal."""


class RegimeError(GausschainError):
    """Requested quantity undefined in this parameter regime."""


class NormalizationError(GausschainError):
    """Vector or density cannot be normalized (zero or non-unit input)."""


class DarkSourceError(GausschainError):
    """Pump site sits on a node of the slow mode; single-mode picture empty."""


class SolveError(GausschainError):
    """Linear system backing a solver is singular or did not solve."""


class ScaleError(GausschainError):
    """Many-body oracle requested beyond its intended size budget."""


class InfeasibilityError(GausschainError):
    """No nonnegative local jump weights exist for the requested target.

    ``deficits`` lists (label, value) pairs for every weight that would
    have to be negative; values are the signed amounts by which the
    feasibility conditions fail.
    """

    def __init__(self, message: str, deficits: tuple[tuple[str, float], ...] = ()):
        super().__init__(message)
        self.deficits = tuple(deficits)


class ValidationError(GausschainError):
    """A validation suite found a deviation beyond tolerance.

    ``report`` carries the structured result, when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
