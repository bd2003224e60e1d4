"""Exception types shared across the package, and the integer, count and
grid-size checks."""

import operator


class ConfigurationError(ValueError):
    """An operation was invoked with incompatible or unusable options."""


class StructuralError(ValueError):
    """Two objects that must agree structurally (alphabets, dimensions) do not."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed its declared budget; no guess is made."""


def integer(value, message: str) -> int:
    """``value`` as a Python int.  Raises ConfigurationError(message) unless
    it is an integer (numpy integers too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(message) from None


def count(value, what: str) -> int:
    """``value`` as a Python int of at least 1, else ConfigurationError naming
    ``what`` and the value (numpy integers are integers)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}") from None
    if value < 1:
        raise ConfigurationError(f"{what} must be positive, got {value}")
    return value


def grid_dims(height, width, what: str = "grid dimensions") -> tuple[int, int]:
    """``(height, width)`` as Python ints.  Raises ConfigurationError, naming
    ``what``, unless both are integers (numpy integers too) and at least 1."""
    message = f"{what} must be integers"
    height, width = integer(height, message), integer(width, message)
    if height < 1 or width < 1:
        raise ConfigurationError(f"{what} must be positive")
    return height, width
