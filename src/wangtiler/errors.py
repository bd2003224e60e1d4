"""Exception types shared across the package, and the grid-size check."""

import operator


class ConfigurationError(ValueError):
    """An operation was invoked with incompatible or unusable options."""


class StructuralError(ValueError):
    """Two objects that must agree structurally (alphabets, dimensions) do not."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed its declared budget; no guess is made."""


def grid_dims(height, width) -> tuple[int, int]:
    """``(height, width)`` as Python ints.  Raises ConfigurationError unless
    both are integers (numpy integers too) and at least 1."""
    try:
        height, width = operator.index(height), operator.index(width)
    except TypeError:
        raise ConfigurationError("grid dimensions must be integers") from None
    if height < 1 or width < 1:
        raise ConfigurationError("grid dimensions must be positive")
    return height, width
