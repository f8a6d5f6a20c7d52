"""Floating-point helpers for certified (never under-reported) quantities.

A bound computed in doubles must never come out below the mathematical
supremum it implements, so every operation chain is topped off with a
relative guard factor (``up``); ``ceil_float`` rounds an exact rational
upward.  The evaluators' coarse rounding-error charge, 2 ulp of the running
magnitude per log or term addition, is added to a plain float where each
value is assembled (``lngamma``, ``theta``).
"""
from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "GUARD",
    "up",
    "ceil_float",
]

#: Relative guard applied per floating operation chain when rounding a bound
#: upward.  2^-40 is ~4000x a double ulp: far above any realistic chain error,
#: far below any margin that matters to a truncation bound.
GUARD = 1.0 + 2.0 ** -40


def up(x: float, chains: int = 1) -> float:
    """Round ``x >= 0`` upward by one guard factor per operation chain,
    multiplying by ``GUARD`` once per chain, in turn."""
    g = GUARD
    while chains >= 4:
        x = x * g * g * g * g
        chains -= 4
    while chains > 0:
        x *= g
        chains -= 1
    return x


def ceil_float(value: Fraction | int) -> float:
    """Smallest double >= the exact ``value`` (+inf if out of range)."""
    try:
        f = float(value)
    except OverflowError:
        return math.inf
    if math.isinf(f):
        return f
    if Fraction(f) >= value:
        return f
    return math.nextafter(f, math.inf)
