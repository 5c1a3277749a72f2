"""Exception types shared across the package, and the argument checks that raise them."""

import math

import numpy as np

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """Raised when inputs or configuration violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""


def _real(
    value, name: str, low=-math.inf, high=math.inf, *, open_low=False, open_high=False
) -> float:
    """``value`` as a float in the interval from ``low`` to ``high``, closed unless opened.

    A string or anything ``float()`` rejects is not numeric; NaN lies in no
    interval; an int beyond the float range counts as +-inf.
    """
    if isinstance(value, (str, bytes)):
        raise ValidationError(f"{name} must be numeric")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric") from None
    if not ((low < x if open_low else low <= x) and (x < high if open_high else x <= high)):
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
        raise ValidationError(f"{name} must lie in {interval}")
    return x


def _integer(value, name: str, low, high=math.inf) -> int:
    """``value`` as an int in [low, high]; integral floats and numpy integers count."""
    if not _real(value, name, low, high, open_high=high == math.inf).is_integer():
        raise ValidationError(f"{name} must be an integer")
    return int(value)


def _as_floats(values, name: str) -> np.ndarray:
    """A float array; ValidationError if ``values`` is not numeric."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric") from None
