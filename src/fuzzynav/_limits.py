"""Which numbers a boundary accepts, and how it says no.

Every constructor and entry point that takes a number checks here that it
is finite, naming it by its own ``what``, so every such rejection reads
``<what> must ..., got <value>``.  Universe bounds, triangle breakpoints
and robot parameters must also lie within ``MAX_MAGNITUDE``, which keeps a
universe width, a centroid moment and a twist finite.  Output universe
widths and robot parameters must also be at least ``MIN_SIZE``, so that an
output term that fires encloses an area above the engine's zero-area
tolerance and the robot can move.
"""
from __future__ import annotations

import math

MAX_MAGNITUDE = 1e6
MIN_SIZE = 1e-6


def require_finite(what: str, value: float, *, bounded: bool = False, floored: bool = False):
    """Raise ValueError naming ``what`` unless ``value`` is finite, and, with
    ``bounded``, at most ``MAX_MAGNITUDE`` in magnitude, and, with
    ``floored``, at least ``MIN_SIZE``."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    if bounded and not -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
        raise ValueError(f"{what} must not exceed {MAX_MAGNITUDE:g} in magnitude, got {value}")
    if floored and not value >= MIN_SIZE:
        raise ValueError(f"{what} must be at least {MIN_SIZE:g}, got {value}")
