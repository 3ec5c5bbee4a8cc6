"""Exception types shared across the package, and the one integer-argument
check."""

__all__ = ["ParameterError", "DomainError", "ExpressionError", "ConvergenceError", "check_int"]


class ParameterError(ValueError):
    """An argument is outside the domain an operation supports."""


class DomainError(ValueError):
    """A mathematical domain violation: a ``RootBound`` with a <= 0, b < 0 or r <= 0."""


class ExpressionError(ValueError):
    """A bound is malformed or not a ``RootBound``."""


class ConvergenceError(RuntimeError):
    """A numeric sum and its cross-check differ by more than the requested
    tolerance.

    Carries the result and its error estimate in ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def check_int(name: str, value: int, least: int, most: int | None = None) -> None:
    """Raise ParameterError unless ``value`` is an int in ``least..most``.
    The type is compared exactly: bool is an int subclass, and True would
    otherwise pass as 1."""
    if type(value) is not int or value < least or (most is not None and value > most):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise ParameterError(f"{name} must be an integer {span}, got {value!r}")
