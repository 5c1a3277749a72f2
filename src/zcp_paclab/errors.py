"""Exception types shared across the package, and the argument checks that raise them."""

import math

import numpy as np

__all__ = ["ValidationError", "NumericalError"]

# The largest count that may size an array: at eight bytes an entry, an array of that many
# entries stays under sys.maxsize bytes, so a count up to it runs or raises MemoryError.
_MAX_COUNT = 10**18


class ValidationError(ValueError):
    """Raised when inputs or configuration violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""


def _number(value, name: str) -> float:
    """``value`` as a float, under ``_real``'s rules for what is numeric and for big ints."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise ValidationError(f"{name} must be numeric")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be numeric") from None


def _real(
    value, name: str, low=-math.inf, high=math.inf, *, open_low=False, open_high=False
) -> float:
    """``value`` as a float in the interval from ``low`` to ``high``, closed unless opened.

    A string, a bool or anything ``float()`` rejects is not numeric; NaN lies
    in no interval; an int beyond the float range counts as +-inf.
    """
    x = _number(value, name)
    if not ((low < x if open_low else low <= x) and (x < high if open_high else x <= high)):
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
        raise ValidationError(f"{name} must lie in {interval}")
    return x


def _integer(value, name: str, low, high=math.inf) -> int:
    """``value`` as an int in [low, high]; integral floats and numpy integers count."""
    if not _real(value, name, low, high, open_high=high == math.inf).is_integer():
        raise ValidationError(f"{name} must be an integer")
    if int(value) > high:  # an int just above high whose float rounds to it
        _real(math.inf, name, low, high)  # refused in _real's words
    return int(value)


def _floats(
    values, name: str, low=-math.inf, high=math.inf, *, open_low=False, open_high=False, ndim=None
) -> np.ndarray:
    """``values`` as a float array, each entry of which ``_real`` would take for the same
    interval; ragged input is not numeric, and a float64 array is returned as it is.  When
    given, ``ndim`` asks for a nonempty array with that many dimensions."""
    try:  # anything but an array entry by entry, so that a bool among numbers is seen
        arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    except (TypeError, ValueError):  # ragged, for one
        raise ValidationError(f"{name} must be numeric") from None
    if arr.dtype == object:  # lists, big ints, None, mixed types: entry by entry
        arr = np.array([_number(v, name) for v in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind not in "iuf":  # a bool array is not numeric either
        raise ValidationError(f"{name} must be numeric")
    arr = np.asarray(arr, dtype=float)
    if ndim is not None and (arr.ndim != ndim or arr.size == 0):
        raise ValidationError(f"{name} must be a nonempty {ndim}-d array")
    inside = (low < arr if open_low else low <= arr) & (arr < high if open_high else arr <= high)
    if not inside.all():  # _real refuses the first entry outside, in its own words
        _real(arr[~inside][0], name, low, high, open_low=open_low, open_high=open_high)
    return arr
