"""Exception hierarchy shared across the package.

Two branches matter for callers: :class:`ValidationError` (bad inputs or
configuration, CLI exit code 1) and :class:`ConvergenceError` (a numerical
process failed to converge, CLI exit code 2).  Built-in ``OverflowError`` is
treated like a convergence failure by the CLI.
"""

__all__ = [
    "FracDelayError",
    "ValidationError",
    "PoleError",
    "ConvergenceError",
    "SeriesConvergenceError",
    "CancellationError",
    "NonContractionError",
    "IterationLimitError",
    "NewtonError",
]


class FracDelayError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FracDelayError, ValueError):
    """Invalid argument, domain violation, or malformed configuration."""


class PoleError(ValidationError):
    """Gamma function evaluated at a nonpositive integer."""


class ConvergenceError(FracDelayError, RuntimeError):
    """A numerical procedure did not reach its tolerance."""


class SeriesConvergenceError(ConvergenceError):
    """Series truncation rule did not fire within ``max_terms``."""


class CancellationError(ConvergenceError):
    """A series sum lost its digits to cancellation: its terms are far larger
    than the sum, so the rounding error estimate passes the limit."""


class NonContractionError(ConvergenceError):
    """The fixed-point operator is not a contraction (q >= 1)."""


class IterationLimitError(ConvergenceError):
    """Picard iteration exceeded its iteration budget."""


class NewtonError(ConvergenceError):
    """The implicit oracle steps do not contract, or a block of them did not
    converge."""
