"""Exception types shared across the package."""


class ShortIntervalError(Exception):
    """Base class for errors raised by shortint operations."""


class MemoryBudgetError(ShortIntervalError):
    """An operation would exceed the configured memory budget."""


class InadmissibleTupleError(ShortIntervalError):
    """An operation that requires an admissible tuple received one that is not."""


class ParameterRangeError(ShortIntervalError):
    """A parameter lies outside the range an operation supports."""
