"""Exception types shared across the package, and the one check of lambda."""

import math


class ShortIntervalError(Exception):
    """Base class for errors raised by shortint operations."""


class MemoryBudgetError(ShortIntervalError):
    """An operation would exceed the configured memory budget."""


class InadmissibleTupleError(ShortIntervalError):
    """An operation that requires an admissible tuple received one that is not."""


class ParameterRangeError(ShortIntervalError):
    """A parameter lies outside the range an operation supports."""


def check_lambda(lam: float) -> None:
    """ParameterRangeError for a non-finite lam, ValueError for lam <= 0."""
    if not math.isfinite(lam):
        raise ParameterRangeError(f"lambda must be finite and positive, got {lam}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
