"""Discrete-event simulation kernel.

A deliberately small process-oriented engine in the style of SimPy:

* an :class:`Environment` owns the virtual clock and the event queue;
* a :class:`Process` wraps a Python generator; the generator *yields*
  :class:`Event` objects (or :class:`AllOf` conveniences) and is resumed when
  they trigger, receiving the event's value as the result of the ``yield``
  expression.  To wait for simulated time it yields the delay itself, a
  ``float`` number of seconds (:meth:`Environment.timeout` checks and
  returns one);
* composition uses plain ``yield from`` — helper coroutines simply delegate.

The engine is single-threaded and fully deterministic: every heap entry is a
``(time, seq, action)`` triple, and entries of the same timestamp run in
``seq`` (insertion) order.  An entry is either a triggered :class:`Event`,
whose action resumes its waiters in the order they started waiting, or a
plain callback scheduled with :meth:`Environment.call_later`, which costs no
:class:`Event`.  Three kinds of plain entry take the ``seq`` slots events
once took:

* a process's bootstrap is one entry at ``now`` when the process is created
  (the slot of a bootstrap event triggered there);
* a yielded delay is one entry at ``now + delay`` when it is yielded (the
  slot of a timeout event created at that point and waited on at once);
* a collective is released by an entry at its last arrival that schedules
  one at ``now + cost`` (the slots of a release process's bootstrap and
  timeout), which triggers the collective's one completion event.

The MPI layer relies on this (see :mod:`repro.simmpi.communicator`): the
completion's callbacks resume the participants in arrival order, and ranks
passing through barriers ride those callbacks as bundles.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable

from repro.simmpi.errors import DeadlockError

#: Type alias for process generators.
ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot event that processes can wait on.

    Attributes:
        env: owning environment.
        value: payload delivered to waiters when the event triggers.
    """

    __slots__ = ("env", "value", "_triggered", "_callbacks", "ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.value: Any = None
        self.ok: bool = True
        self._triggered = False
        self._callbacks: list[Callable[[Event], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._triggered

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now, delivering ``value`` to all waiters."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self.value = value
        self.ok = True
        self._triggered = True
        self.env._schedule(0.0, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiting processes."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self.value = exception
        self.ok = False
        self._triggered = True
        self.env._schedule(0.0, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback run when the event is processed.

        Waiting on an event that has already been processed (e.g. a completed
        non-blocking request) runs the callback immediately.
        """
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _process_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)


class AllOf(Event):
    """An event that triggers once all child events have triggered.

    The value delivered is the list of the children's values, in the order
    the children were given.  If a child fails, the event fails with that
    child's exception as soon as the failure is processed.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            # The first failing child fails the whole wait, as MPI_Waitall
            # reports an error instead of a value.
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._children])


class Outcome:
    """What a process is resumed with when no event stands behind it."""

    __slots__ = ("ok", "value")

    def __init__(self, ok: bool, value: Any) -> None:
        self.ok = ok
        self.value = value


#: A bootstrap or an elapsed delay: resume with ``None``.
_WOKEN = Outcome(True, None)


class Process(Event):
    """A running coroutine; also an event that triggers when it returns."""

    __slots__ = ("generator", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = "process"
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name
        # Bootstrap: resume the generator as soon as the simulation starts.
        env.call_later(0.0, self._wake)

    def _wake(self) -> None:
        self._resume(_WOKEN)

    def _resume(self, event: Event | Outcome) -> None:
        # A loop, not recursion: a target that has already been processed
        # (e.g. a completed request) is fed straight back into the generator.
        while True:
            try:
                if event.ok:
                    target = self.generator.send(event.value)
                else:
                    target = self.generator.throw(event.value)
            except StopIteration as stop:
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # propagate failures to waiters
                if not self._triggered:
                    self.fail(exc)
                else:  # pragma: no cover - defensive
                    raise
                return
            if target.__class__ is float and target >= 0.0:
                self.env.call_later(target, self._wake)
                return
            if not isinstance(target, Event):
                error = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event/AllOf instances or a non-negative float delay"
                )
                self.generator.close()
                if not self._triggered:
                    self.fail(error)
                return
            if target._callbacks is not None:
                target.add_callback(self._resume)
                return
            event = target


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = count()
        #: Events processed so far (diagnostics; read by the obs layer).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    @staticmethod
    def timeout(delay: float) -> float:
        """A wait of ``delay`` simulated seconds: ``yield env.timeout(delay)``.

        The delay is checked and returned as a ``float``; the process that
        yields it is resumed by one plain heap entry at ``now + delay``.
        """
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        return float(delay)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    def process(self, generator: ProcessGenerator, name: str = "process") -> Process:
        """Register ``generator`` as a process, started when :meth:`run` executes."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _schedule(self, delay: float, event: Event) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, next(self._counter), event._process_callbacks)
        )

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` ``delay`` simulated seconds from now.

        A plain heap entry: it takes the next ``seq`` slot like an event
        would, but nothing can wait on it.
        """
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), callback))

    def step(self) -> None:
        """Process the next heap entry."""
        when, _seq, action = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        action()

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or simulated time ``until``); returns the final time."""
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return self._now
            self.step()
        return self._now

    def run_all(self, expect_processes: Iterable[Process] = ()) -> float:
        """Run to completion and verify the given processes all finished.

        Raises:
            DeadlockError: if the event queue drained while some of the
                ``expect_processes`` have not completed (a blocked collective,
                an unmatched receive, ...).
        """
        final_time = self.run()
        stuck = [p.name for p in expect_processes if not p.triggered]
        if stuck:
            raise DeadlockError(
                "simulation ended with blocked processes: " + ", ".join(stuck)
            )
        return final_time
