"""Exception hierarchy shared across the package.

Three broad families map onto the CLI exit codes: configuration problems
(exit 2), data problems (exit 3), and numeric failures (exit 4).
"""


class DpmsError(Exception):
    """Base class for all package errors."""


class ConfigError(DpmsError, ValueError):
    """Invalid arguments, budgets, bounds, or run configuration."""


class WrongMechanismError(ConfigError):
    """A mechanism was invoked with an incompatible privacy budget."""


class SplitInfeasibleError(ConfigError):
    """Requested split cannot satisfy the minimum subset size."""


class DataError(DpmsError, ValueError):
    """Problems with the input data (shape, rank, parsing, degeneracy)."""


class RankError(DataError):
    """A design matrix is rank deficient.

    ``column`` is the index of the first offending column when known, and
    ``subset`` that of the first unusable subset of a split, which the
    message leaves out.
    """

    def __init__(self, message: str, column: int | None = None, subset: int | None = None):
        super().__init__(message)
        self.column = column
        self.subset = subset


class DegenerateResponseError(DataError):
    """The centered response has zero sum of squares."""


class NumericError(DpmsError, RuntimeError):
    """A numerical routine failed to converge or produced no output."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RepairFailureError(NumericError):
    """Positive-definite repair failed even after escalation."""


class EmptyRegionError(NumericError):
    """Every confidence-region candidate was rejected."""


class InsufficientSimulationsError(ConfigError):
    """Too few null simulations for the requested quantile."""
