"""Observability for the reproduction: metrics, spans, and trace export.

A stdlib-only instrumentation layer shared by the simulator, the
experiment runner, the autotuner, and the serve daemon.  Three pieces:

* :mod:`repro.obs.clock` — the one monotonic clock and rounding policy
  every wall-time measurement uses (:func:`now`, :func:`elapsed_s`,
  :func:`timed`).
* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` value types.
* :mod:`repro.obs.recorder` — the process-local :class:`Recorder` behind
  :func:`recorder` / :func:`span`, a strict no-op while disabled so the
  byte-identical-artifact and placement throughput guarantees are
  untouched.  Enable with ``REPRO_TRACE=...``, ``--trace FILE``, or
  :func:`enable`.
* :mod:`repro.obs.export` — Chrome trace-event JSON
  (:func:`write_chrome_trace`, Perfetto-loadable) and Prometheus text
  exposition (:func:`prometheus_text`, the daemon's ``GET /metrics``).

Instrumented call sites follow one pattern::

    from repro.obs import recorder, span

    with span("placement", strategy=name):      # no-op object when off
        rec = recorder()                        # None when off
        if rec is not None:
            rec.inc("costmodel.candidates", n)
"""

from repro.obs.clock import WALL_DECIMALS, elapsed_s, now, round_wall, timed
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram
from repro.obs.recorder import (
    Recorder,
    disable,
    enable,
    enabled,
    recorder,
    span,
)

__all__ = [
    "WALL_DECIMALS",
    "elapsed_s",
    "now",
    "round_wall",
    "timed",
    "chrome_trace",
    "chrome_trace_events",
    "prometheus_text",
    "write_chrome_trace",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Recorder",
    "disable",
    "enable",
    "enabled",
    "recorder",
    "span",
]
