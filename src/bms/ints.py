"""Checked integer arithmetic.

Values are plain Python integers, so arithmetic itself can never wrap; the
explicit bound below keeps results inside a signed 64-bit word and turns
anything larger into a reported error instead of a silently huge number.
"""

import math
from typing import Iterable

from .errors import OverflowLimitError, SchemaError

INT_LIMIT = 2**63 - 1


def require_int(value: object, context: str = "value") -> int:
    """Return ``value`` unchanged, or raise SchemaError if it is not an int;
    a bool is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{context} must be an integer, got {value!r}")
    return value


def checked(value: int, context: str = "value") -> int:
    """Return ``value`` unchanged, or raise if it is not an int or exceeds
    the 64-bit bound."""
    if abs(require_int(value, context)) > INT_LIMIT:
        raise OverflowLimitError(f"{context} {value} exceeds the 64-bit bound")
    return value


def checked_lcm(values: Iterable[int]) -> int:
    """LCM of positive integers; 1 for the empty family; checked."""
    out = 1
    for v in values:
        out = math.lcm(out, v)
        if out > INT_LIMIT:
            raise OverflowLimitError(f"lcm exceeds the 64-bit bound at {v}")
    return out
