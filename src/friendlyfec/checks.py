"""Type tests shared by the settings checks of several modules."""

from __future__ import annotations

import numbers


def is_real(value) -> bool:
    """True for a real number other than a bool: a float setting takes neither True nor "5"."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
