"""The process-local recorder: the on/off switch of all instrumentation.

Exactly one :class:`Recorder` exists per process when observability is
enabled, and **none** when it is not: :func:`recorder` returns ``None``
while disabled, so every instrumented call site reduces to one global
load plus a ``None`` check::

    rec = recorder()
    if rec is not None:
        rec.inc("sim.bytes_moved", nbytes, link="inter")

and :func:`span` hands back one shared, reusable no-op context manager.
That is the zero-overhead-when-off guarantee the placement throughput
floor and the byte-identical-artifact check both rely on — nothing here
ever touches model state, only host-side clocks and tallies.

Enable with the ``REPRO_TRACE`` environment variable (checked at import;
a value other than ``1``/``true`` is taken as the Chrome-trace output
path), the ``--trace FILE`` CLI flag, or :func:`enable` directly.

Spans nest: each thread keeps a stack, so a span opened inside another
records its parent, and the Chrome trace exporter lays them out
hierarchically per thread.  Async code (the serve daemon) must not use
the stack — interleaved coroutines on one thread would mis-nest — and
records flat spans with explicit timestamps via :meth:`Recorder.add_span`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Mapping

from repro.obs.clock import now, round_wall
from repro.obs.metrics import Counter, Gauge, Histogram, _frozen_labels

#: One reusable, stateless no-op context manager handed out by
#: :func:`span` while recording is disabled.
_NOOP_SPAN = nullcontext()

_RECORDER: "Recorder | None" = None


class _Span:
    """Context manager recording one stack-nested span (see :func:`span`)."""

    __slots__ = ("_recorder", "name", "cat", "args", "_start")

    def __init__(self, recorder: "Recorder", name: str, cat: str, args: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack()
        self.args.setdefault("parent", stack[-1] if stack else None)
        stack.append(self.name)
        self._start = now()
        return self

    def __exit__(self, *_exc: Any) -> None:
        end = now()
        stack = self._recorder._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._recorder.add_span(
            self.name, self._start, end, cat=self.cat, args=self.args
        )


class Recorder:
    """Process-local sink for metrics and spans.

    Not instantiated directly in normal use — :func:`enable` builds the
    singleton and :func:`recorder` fetches it (or ``None``).  Worker
    processes build their own short-lived instances and ship
    :meth:`export_state` back to the parent for :meth:`merge_state`.

    Args:
        trace_path: where :func:`~repro.obs.export.write_chrome_trace`
            should write on flush; ``None`` keeps the trace in memory only.
    """

    def __init__(self, trace_path: str | os.PathLike | None = None) -> None:
        self.trace_path = os.fspath(trace_path) if trace_path is not None else None
        self.pid = os.getpid()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- span stack (per thread) -------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- metrics ------------------------------------------------------------

    def _metric(self, factory, name: str, labels: Mapping[str, str] | None):
        key = (name, (factory.kind,) + _frozen_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(key, factory(name, labels))
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """The :class:`Counter` registered under ``(name, labels)``."""
        return self._metric(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The :class:`Gauge` registered under ``(name, labels)``."""
        return self._metric(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The :class:`Histogram` registered under ``(name, labels)``."""
        return self._metric(Histogram, name, labels)

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the counter ``name`` (created on first use)."""
        self._metric(Counter, name, labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge ``name`` (created on first use)."""
        self._metric(Gauge, name, labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record ``value`` into the histogram ``name`` (created on first use)."""
        self._metric(Histogram, name, labels).observe(value)

    def metrics(self) -> Iterator[Counter | Gauge | Histogram]:
        """All registered metrics, in stable (name, labels) order."""
        with self._lock:
            items = sorted(self._metrics.items(), key=lambda kv: kv[0])
        for _key, metric in items:
            yield metric

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, cat: str = "repro", **args: Any) -> _Span:
        """A context manager timing one nested span on this thread's stack."""
        return _Span(self, name, cat, args)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "repro",
        tid: int | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one completed span with explicit monotonic timestamps.

        The async-safe entry point: the serve daemon stamps ``start`` at
        request arrival and calls this once at completion, never touching
        the per-thread nesting stack.
        """
        record = {
            "name": name,
            "cat": cat,
            "start": start,
            "end": end,
            "dur": round_wall(end - start),
            "pid": self.pid,
            "tid": tid if tid is not None else threading.get_ident(),
        }
        if args:
            record["args"] = {k: v for k, v in args.items() if v is not None}
        with self._lock:
            self.spans.append(record)

    def span_seconds(self) -> dict[str, float]:
        """Total recorded seconds per span name (tool for ``repro profile``)."""
        totals: dict[str, float] = {}
        with self._lock:
            for record in self.spans:
                totals[record["name"]] = totals.get(record["name"], 0.0) + record["dur"]
        return {name: round_wall(total) for name, total in totals.items()}

    # -- worker delta round-trip --------------------------------------------

    def export_state(self) -> dict:
        """Everything this recorder saw, as one JSON/pickle-safe dict.

        Worker processes call this after finishing their slice of work
        and return it alongside their outcomes; the parent folds it back
        in with :meth:`merge_state`.
        """
        with self._lock:
            spans = [dict(record) for record in self.spans]
        return {
            "pid": self.pid,
            "clock": now(),
            "metrics": [metric.snapshot() for metric in self.metrics()],
            "spans": spans,
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold a worker's :meth:`export_state` into this recorder.

        Counters add, gauges keep the last value written, histograms merge
        bucket-by-bucket.  Worker spans keep their worker ``pid``/``tid``
        and are shifted onto this process's clock so the worker's last
        span ends at its ``clock`` export timestamp — alignment between
        processes is approximate by nature (separate monotonic clocks) but
        durations are exact.
        """
        for snap in state.get("metrics", ()):
            labels = snap.get("labels") or {}
            kind = snap.get("kind")
            if kind == "counter":
                self._metric(Counter, snap["name"], labels).inc(snap["value"])
            elif kind == "gauge":
                self._metric(Gauge, snap["name"], labels).set(snap["value"])
            elif kind == "histogram":
                metric = self._metric(Histogram, snap["name"], labels)
                if not isinstance(metric, Histogram):  # pragma: no cover
                    continue
                if tuple(snap["buckets"]) != metric.buckets:
                    metric = Histogram(snap["name"], labels, snap["buckets"])
                    with self._lock:
                        self._metrics[
                            (snap["name"], ("histogram",) + _frozen_labels(labels))
                        ] = metric
                metric.merge(snap)
        spans = state.get("spans", ())
        if spans:
            offset = now() - float(state.get("clock") or 0.0)
            with self._lock:
                for record in spans:
                    shifted = dict(record)
                    shifted["start"] = record["start"] + offset
                    shifted["end"] = record["end"] + offset
                    self.spans.append(shifted)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> str | None:
        """Write the Chrome trace to :attr:`trace_path`, if one was given.

        Returns the written path, or ``None`` when tracing to memory only.
        """
        if self.trace_path is None:
            return None
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self.trace_path, self)
        return self.trace_path


def recorder() -> Recorder | None:
    """The process-local recorder, or ``None`` while disabled.

    The one-line guard for every instrumented call site::

        rec = recorder()
        if rec is not None:
            ...
    """
    return _RECORDER


def enabled() -> bool:
    """Whether a recorder is currently active in this process."""
    return _RECORDER is not None


def enable(trace_path: str | os.PathLike | None = None) -> Recorder:
    """Install (or return) the process-local recorder.

    Idempotent: if a recorder already exists it is kept, only adopting
    ``trace_path`` when it had none.
    """
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder(trace_path)
    elif trace_path is not None and _RECORDER.trace_path is None:
        _RECORDER.trace_path = os.fspath(trace_path)
    return _RECORDER


def disable() -> None:
    """Drop the process-local recorder; instrumentation reverts to no-ops."""
    global _RECORDER
    _RECORDER = None


def span(name: str, cat: str = "repro", **args: Any):
    """A nested timing span — no-op (one shared context manager) when disabled.

    Usage::

        with span("placement", strategy=strategy):
            ...
    """
    rec = _RECORDER
    if rec is None:
        return _NOOP_SPAN
    return rec.span(name, cat, **args)


@contextmanager
def collecting(trace_path: str | os.PathLike | None = None):
    """Install a fresh recorder for the duration of a ``with`` block.

    Worker processes wrap each task in this so every task's metric *delta*
    (not the pool worker's lifetime accumulation) can be exported and
    shipped back to the parent for :meth:`Recorder.merge_state`.  The
    previously installed recorder (usually ``None``) is restored on exit.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = Recorder(trace_path)
    try:
        yield _RECORDER
    finally:
        _RECORDER = previous


def configure_from_env() -> None:
    """Honour ``REPRO_TRACE``: enable recording at import time when set.

    ``REPRO_TRACE=1`` (or ``true``/``yes``/``on``) records in memory;
    any other non-empty value is used as the Chrome-trace output path.
    """
    value = os.environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return
    if value.lower() in ("1", "true", "yes", "on"):
        enable()
    else:
        enable(value)


configure_from_env()
