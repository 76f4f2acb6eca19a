"""Non-blocking operation handles.

A :class:`Request` wraps an engine :class:`~repro.simmpi.engine.Event` and
gives it MPI-like ``wait``/``test`` semantics.  TAPIOCA relies on
non-blocking file writes (``iFlush``) to overlap the I/O phase with the next
aggregation round, so requests are first-class citizens here.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.simmpi.engine import Environment, Event


class Request:
    """Handle for a non-blocking operation.

    Attributes:
        event: the underlying completion event.
        label: short description used in diagnostics.
    """

    def __init__(self, event: Event, label: str = "request") -> None:
        self.event = event
        self.label = label

    @property
    def complete(self) -> bool:
        """Whether the operation has finished (MPI ``Test`` semantics)."""
        return self.event.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """Generator-style wait: ``result = yield from request.wait()``."""
        value = yield self.event
        return value

    @staticmethod
    def wait_all(
        env: Environment, requests: Iterable["Request"]
    ) -> Generator[Event, Any, list[Any]]:
        """Wait for all requests; returns their values in order.

        Raises the exception of the first request to fail.  Usage:
        ``values = yield from Request.wait_all(env, reqs)``.
        """
        requests = list(requests)
        if not requests:
            return []
        values = yield env.all_of([r.event for r in requests])
        return list(values)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.complete else "pending"
        return f"<Request {self.label!r} {state}>"
