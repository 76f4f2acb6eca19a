"""One monotonic clock for every wall-time measurement in the repo.

Every timing flows through :func:`now`, :func:`elapsed_s`, and
:func:`timed`, and every reported duration is rounded to the same
:data:`WALL_DECIMALS` digits so artifacts and traces agree on what a
second looks like.
"""

from __future__ import annotations

import time
from typing import Any, Callable, TypeVar

T = TypeVar("T")

#: Decimal digits every reported wall-clock duration is rounded to.
#: Microsecond resolution — finer than ``perf_counter`` is trustworthy
#: across processes, coarse enough to keep JSON artifacts tidy.
WALL_DECIMALS = 6


def now() -> float:
    """Current monotonic timestamp in seconds (``time.perf_counter``).

    Only differences between two :func:`now` values are meaningful; the
    origin is arbitrary and process-local.
    """
    return time.perf_counter()


def round_wall(seconds: float) -> float:
    """``seconds`` rounded to the repo-wide :data:`WALL_DECIMALS` digits."""
    return round(float(seconds), WALL_DECIMALS)


def elapsed_s(start: float) -> float:
    """Seconds elapsed since ``start`` (a :func:`now` value), rounded."""
    return round_wall(time.perf_counter() - start)


def timed(fn: Callable[..., T], *args: Any, **kwargs: Any) -> tuple[T, float]:
    """Call ``fn(*args, **kwargs)`` and return ``(result, wall_seconds)``.

    The duration is rounded with :func:`round_wall`, so every timing idiom
    reports identically-shaped numbers.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, elapsed_s(start)
