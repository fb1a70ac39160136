"""Exception hierarchy shared across the package."""


class ShuffleLeakError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ShuffleLeakError, ValueError):
    """A constructor or operation received an out-of-domain parameter."""


class InvalidInputError(ShuffleLeakError, ValueError):
    """Runtime data violates an operation's preconditions."""


class AbsoluteContinuityError(InvalidInputError):
    """A distribution places mass where the reference distribution has none."""


class ResourceLimitError(ShuffleLeakError, RuntimeError):
    """An exact oracle would exceed the state ceiling, ``exact.MAX_STATES``."""
