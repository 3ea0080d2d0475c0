"""Exception types shared across the toolkit."""


class LatminError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2  # the CLI's exit code: bad input


class InvalidNorm(LatminError):
    """Ellipsoid gram matrix is not symmetric positive definite."""


class UnboundedBall(LatminError):
    """The unit ball of the norm is unbounded (rank-deficient functionals)."""


class DimensionMismatch(LatminError):
    """Vector or matrix dimensions do not match the module rank."""


class EnumerationBudgetExceeded(LatminError):
    """The walk's size bound, prod (2 B_i + 1) over its level widths,
    exceeds the enumeration budget."""

    exit_code = 3

    def __init__(self, predicted, budget):
        super().__init__(f"predicted {predicted} candidates exceeds budget {budget}")
        self.predicted = predicted
        self.budget = budget


class InfeasibleLedger(LatminError):
    """A derived self-intersection number went negative."""


class PreconditionViolated(LatminError):
    """Closed-form bound evaluated outside its stated preconditions."""


class ConfigError(LatminError):
    """Invalid configuration or input file."""
