"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the domain an operation supports."""


class DomainError(ValueError):
    """A mathematical domain violation (negative radicand, out-of-range abscissa)."""


class ExpressionError(ValueError):
    """A bound is malformed, or an interval divisor contains zero."""


class ConvergenceError(RuntimeError):
    """Quadrature did not reach the requested tolerance within its budget.

    Carries the best estimate obtained so far in ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best
