"""Clocks, percentiles and output digests shared by the benchmark modules.

Timings use host CPU seconds of the process and of its reaped children
(``getrusage``), so work moved into a child process still counts; wall time
is kept alongside.

CPU seconds alone still drift with the host: on a shared 2-core machine a
fixed piece of Python code takes from 1x to 2x its quiet time depending on
what the other tenants run.  The benchmark therefore runs a fixed
calibration kernel between ops (:class:`CalibrationKernel`, a few ms every
``CALIBRATION_INTERVAL_S`` of op time) and reports each op's time scaled
by ``REFERENCE_KERNEL_S / kernel time`` measured around it: seconds on a
host where the kernel takes ``REFERENCE_KERNEL_S``.  The kernel is the
benchmark's own code, so a change to the program moves only the op times.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Percentiles a tail metric may use, highest first.  p99 is left out: with
#: the run sizes used here it would rest on barely ten samples.
TAIL_LADDER = (95, 90, 75)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Significant digits kept for floats in an output digest: last-bit changes
#: from a reordered sum keep the digest, a changed model value does not.
DIGEST_DIGITS = 10


#: Kernel CPU seconds that define the reference host speed.
REFERENCE_KERNEL_S = 0.004

#: Op time between two calibration points.
CALIBRATION_INTERVAL_S = 0.2


class CalibrationKernel:
    """A fixed piece of work whose time tracks the host's current speed.

    It mixes the program's kinds of work: interpreter-bound dict and string
    operations, small-array numpy arithmetic, and random reads over a
    working set of a few MiB (dict lookups and a numpy gather), which slow
    down when other tenants evict the shared caches.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = {key: (key * 2654435761) % 1_000_003 for key in range(50_000)}
        self._keys = [int(key) for key in rng.permutation(50_000)[:10_000]]
        self._array = np.arange(1 << 18, dtype=np.float64)
        self._index = rng.integers(0, 1 << 18, size=50_000)

    def run(self) -> int:
        counts: dict[int, int] = {}
        total = 0
        for index in range(10_000):
            key = index % 257
            counts[key] = counts.get(key, 0) + index
            total += (index * index) % 7
        total += len(",".join(str(index) for index in range(4_000)))
        values = np.arange(4096, dtype=np.float64)
        for _ in range(80):
            values = np.sqrt(values * values + 1.0)
        table = self._table
        for key in self._keys:
            total += table[key]
        return total + int(values[-1]) + int(self._array[self._index].sum())

    def measure(self) -> tuple[float, float]:
        """CPU and wall seconds of one :meth:`run`."""
        wall, cpu = time.perf_counter(), cpu_now()
        self.run()
        return cpu_now() - cpu, time.perf_counter() - wall


def cpu_now() -> float:
    """Host CPU seconds (user + system) of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Sample:
    """One timed op: raw host times and the host-speed scale measured around it."""

    label: str
    kind: str
    cpu_s: float
    wall_s: float
    ok: bool
    reason: str
    cpu_scale: float = 1.0
    wall_scale: float = 1.0

    @property
    def ref_cpu_s(self) -> float:
        """CPU seconds on the reference host."""
        return self.cpu_s * self.cpu_scale

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds on the reference host."""
        return self.wall_s * self.wall_scale


class Calibrator:
    """Calibration points between ops; scales each op by the points around it."""

    def __init__(self, kernel: CalibrationKernel) -> None:
        self._kernel = kernel
        self._before = kernel.measure()
        self._pending: list[Sample] = []
        self._pending_s = 0.0

    def add(self, sample: Sample) -> None:
        self._pending.append(sample)
        self._pending_s += sample.cpu_s
        if self._pending_s >= CALIBRATION_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Close the current interval: scale its samples by the mean kernel time."""
        if not self._pending:
            return
        after = self._kernel.measure()
        kernel_cpu = (self._before[0] + after[0]) / 2.0
        kernel_wall = (self._before[1] + after[1]) / 2.0
        for sample in self._pending:
            sample.cpu_scale = REFERENCE_KERNEL_S / kernel_cpu
            sample.wall_scale = REFERENCE_KERNEL_S / kernel_wall
        self._before, self._pending, self._pending_s = after, [], 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process or any child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tail_percentile(count: int) -> int | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond."""
    for pct in TAIL_LADDER:
        if count * (100 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive method)."""
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        if not math.isfinite(value) or value == 0.0:
            return repr(value)
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(items: Any) -> str:
    """SHA-256 of simulated outputs (never host timings), ignoring float noise."""
    text = json.dumps(_canonical(items), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
