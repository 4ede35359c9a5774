"""The value rules that settings share: a count, a positive and finite level,
a Philox seed, a finite number, a level in dB and a code rate. Each rule
raises ValueError naming the setting it is given, and none takes a bool
(which would act as 0 or 1) or a string, so every boundary rejects a bad
value the same way before any numerics run.
"""

from __future__ import annotations

import math
import numbers


def is_real(value) -> bool:
    """True for a real number other than a bool: a float setting takes neither True nor "5"."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def count(name: str, value, minimum: int = 1) -> int:
    """`value` as a Python int if it is an integer (numpy's too) >= minimum, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _as_float(value) -> float | None:
    """`value` as a float, or None unless it is a real number within float range."""
    if not is_real(value):
        return None
    try:
        return float(value)
    except OverflowError:  # an int beyond float range, such as 10**400
        return None


def positive(name: str, value) -> None:
    """Raise ValueError unless `value` is a real number in (0, inf), as a float too."""
    x = _as_float(value)
    if x is None or not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def seed(name: str, value) -> None:
    """Raise ValueError unless `value` is an integer in Philox's key range [0, 2**128)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**128:
        raise ValueError(f"{name} must be an integer in [0, 2**128), got {value!r}")


def finite(name: str, value) -> float:
    """`value` as a float if it is a finite real number, such as an Eb/N0 in dB, else ValueError."""
    x = _as_float(value)
    if x is None or not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def rate(name: str, value) -> None:
    """Raise ValueError unless `value` is a real number in (0, 1], as a code rate is."""
    x = _as_float(value)
    if x is None or not 0.0 < x <= 1.0:
        raise ValueError(f"{name} must be a real number in (0, 1], got {value!r}")


def decibels(name: str, value) -> float:
    """The power ratio 10^(value / 10) of a level in dB, such as an Eb/N0, if the
    ratio is a normal float: for finite values in (-3076, 3082), else ValueError."""
    x = finite(name, value)
    if not -3076.0 < x < 3082.0:
        raise ValueError(f"{name} {value!r} dB is out of range")
    return 10.0 ** (x / 10.0)
