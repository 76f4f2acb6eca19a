"""Small argument-validation helpers shared across the library.

The simulation layers accept many integer/float configuration knobs (node
counts, buffer sizes, bandwidths); failing early with a clear message is much
easier to debug than a mysterious downstream shape error, so constructors use
these helpers liberally.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import Iterable, TypeVar

T = TypeVar("T")


def did_you_mean_hint(name: str, known: Iterable[str], *, n: int = 3) -> str:
    """A ``"; did you mean 'a', 'b'?"`` suffix for a near-miss name.

    Returns the empty string when nothing is close — error sites append the
    hint unconditionally.  Shared by every registry-style lookup (spec
    fields, scenario names, objectives, strategies) so the phrasing stays
    uniform.
    """
    matches = get_close_matches(name, list(known), n=n)
    return f"; did you mean {', '.join(map(repr, matches))}?" if matches else ""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value
