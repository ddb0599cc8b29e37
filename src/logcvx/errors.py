"""Exception types shared across the package."""
from __future__ import annotations


class LogcvxError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LogcvxError):
    pass


class ScaleMismatch(LogcvxError):
    pass


class OutOfRange(LogcvxError):
    pass


class EmptyShell(LogcvxError):
    """The box has too few order shells for the growth heuristic."""


class EmptyKGrid(LogcvxError):
    pass


class EmptySGrid(LogcvxError):
    pass


class GridMismatch(LogcvxError):
    """Two grids that were expected to agree on a common sub-box do not."""


class NotNormalized(LogcvxError):
    """Value at the origin is not 1 (EXP scale) / 0 (LOG scale)."""


class NumericBreakdown(LogcvxError):
    """The solver could not make progress within its numeric tolerances."""


class WitnessError(LogcvxError, ValueError):
    """A weight matrix, relation or condition witness breaks its rules."""


class LevelNotFound(LogcvxError):
    pass


class SchemaError(LogcvxError):
    """Malformed serialized input.

    Carries the JSON-pointer-ish path of the offending element plus what was
    expected and what was found, so parse failures are actionable.
    """

    def __init__(self, path: str, expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found}")


class GridValidationError(LogcvxError):
    """A structurally well-formed grid violates the data-model rules."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid grid: {lines}")
