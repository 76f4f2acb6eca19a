"""Fluid multi-job runtime: time-sliced co-execution of concurrent jobs.

:class:`MultiJobRuntime` runs several simulated jobs against one machine.
Building a runtime is one columnar pass over its job list: a
:class:`~repro.multijob.allocator.NodeAllocator` grants every job its nodes
in one walk over the free pool, :func:`~repro.multijob.job.bind_jobs` binds
them all at once (each is estimated in isolation on exactly its allocation,
the baseline), and every job becomes one row of a
:class:`~repro.multijob.contention.ContentionLedger`, filled once from the
jobs' ``(row, resource, weight)`` terms over the machine's shared storage
surfaces (OSTs, LNET, I/O nodes, backend, burst-buffer drain) plus the
interconnect links the jobs' aggregation traffic crosses.

Execution is a fluid (rate-based) simulation advanced in time slices: within
a slice the ledger's max-min fair rates are constant, so progress integrates
exactly; slices additionally end at every arrival and completion, which is
where the active rows — and therefore the fair allocation — change.  Rates
are solved only on those changes.  Each job's *slowdown* is its
shared-machine I/O time divided by its isolated I/O time; a job whose
resources nobody else touches reports exactly 1.0.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.machine.machine import Machine
from repro.multijob.allocator import NodeAllocator
from repro.multijob.contention import ContentionLedger
from repro.multijob.job import JobSpec, bind_jobs
from repro.utils.validation import require

#: Completion tolerance: a job is done when this close to its total bytes.
_BYTES_EPS = 1e-6

#: Relative completion tolerance: for multi-gigabyte jobs one float ulp of
#: ``total_bytes`` exceeds the absolute tolerance, so without a relative
#: term a job could sit within rounding error of completion while
#: ``now + remaining/rate == now`` — a zero-width slice loop.
_REL_BYTES_EPS = 1e-12

#: Longest fluid time slice (seconds).  Rates are also recomputed at every
#: arrival and completion, so the slice only bounds reporting granularity,
#: not correctness.
_SLICE_S = 1.0


class StarvedFlowError(RuntimeError):
    """The fluid loop can make no further progress.

    Raised when active jobs were allocated rate 0.0 with no pending arrival
    or completion left to free capacity (every shared resource they touch is
    saturated at zero headroom), or when a slice collapses to zero width
    without completing a job — either way the loop would otherwise spin
    forever without moving a byte.
    """


@dataclass(frozen=True)
class JobOutcome:
    """Per-job result of a multi-job run.

    Attributes:
        name: job name.
        nodes: the allocation the job ran on.
        isolated_io_s: I/O wall time the job takes *alone* on the machine —
            its solo rate through the very same ledger, so capacities that
            bind even without co-runners (a burst-buffer drain narrower than
            the job's demand, say) do not masquerade as interference.
        shared_io_s: I/O wall time it actually took with the co-runners.
        slowdown: ``shared_io_s / isolated_io_s`` (>= 1 up to float noise).
        start_s: time the I/O phase became runnable.
        finish_s: time the I/O phase completed.
        total_bytes: bytes the job moved.
    """

    name: str
    nodes: tuple[int, ...]
    isolated_io_s: float
    shared_io_s: float
    slowdown: float
    start_s: float
    finish_s: float
    total_bytes: float


@dataclass(eq=False)
class InterferenceReport:
    """Result of one multi-job scenario.

    Reports are equal when their outcomes, peak utilizations and shared
    resources are.

    Attributes:
        outcomes: per-job outcomes, in spec order.
        peak_utilization: worst observed fraction of each shared resource's
            capacity over all slices (conservation requires <= 1).
        ledger: the run's contention ledger, which
            :attr:`shared_resources` is read from.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    peak_utilization: dict[tuple, float] = field(default_factory=dict)
    ledger: ContentionLedger | None = field(default=None, repr=False)

    @cached_property
    def shared_resources(self) -> dict[tuple[str, str], list[tuple]]:
        """For each unordered job pair that shares at least one resource,
        the shared keys, in ``repr`` order.

        Computed on first read: the scenario path never reads it.
        """
        return {} if self.ledger is None else _shared_resources(self.ledger)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterferenceReport):
            return NotImplemented
        return (self.outcomes, self.peak_utilization, self.shared_resources) == (
            other.outcomes,
            other.peak_utilization,
            other.shared_resources,
        )

    def outcome_of(self, name: str) -> JobOutcome:
        """Look up one job's outcome by name."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no job named {name!r} in this report")

    def max_slowdown(self) -> float:
        """The worst per-job slowdown of the scenario."""
        return max(outcome.slowdown for outcome in self.outcomes)

    def conserves_bandwidth(self, tolerance: float = 1e-6) -> bool:
        """Whether no shared resource was ever allocated beyond its capacity."""
        return all(
            utilization <= 1.0 + tolerance
            for utilization in self.peak_utilization.values()
        )


class MultiJobRuntime:
    """Co-executes several jobs on one machine with shared-resource contention.

    Args:
        machine: the shared platform.
        specs: the jobs to run (names must be unique).
        allocation_policy: node-allocator policy (``"contiguous"``,
            ``"scattered"`` or ``"topology-aware"``).
    """

    def __init__(
        self,
        machine: Machine,
        specs: Sequence[JobSpec],
        *,
        allocation_policy: str = "contiguous",
    ) -> None:
        require(len(specs) > 0, "no jobs to run")
        names = [spec.name for spec in specs]
        require(len(set(names)) == len(names), "job names must be unique")
        self.machine = machine
        self.allocator = NodeAllocator(machine, allocation_policy)
        # Storage resources exist machine-wide, before any job arrives.
        # Capacities follow the scenario's access direction; mixed read/write
        # scenarios conservatively use the (lower) write capacities.
        access = (
            "read"
            if all(spec.workload.access == "read" for spec in specs)
            else "write"
        )
        resources = [(r.key, r.capacity) for r in machine.storage_resources(access)]
        registered = {key for key, _ in resources}
        # Allocation never reads a binding: allocate every job, then bind all.
        allocations = self.allocator.allocate_all(names, [spec.num_nodes for spec in specs])
        self.jobs = bind_jobs(machine, specs, allocations)
        rows: list[int] = []
        keys: list[tuple] = []
        weights: list[float] = []
        for row, (spec, job) in enumerate(zip(specs, self.jobs)):
            # Each job's links follow in first-traversal order, then the
            # resources of its file-system override (e.g. a shared burst
            # buffer) the machine model does not enumerate, registered by
            # the first job naming one.
            links, link_weights, bandwidths = job.link_terms()
            resources += zip(links, bandwidths)
            registered.update(links)
            if spec.filesystem is not None:
                for resource in spec.filesystem.shared_resources(access):
                    key = resource.key
                    if key in job.storage_weights and key not in registered:
                        resources.append((key, resource.capacity))
                        registered.add(key)
            rows += [row] * (len(job.storage_weights) + len(links))
            keys += job.storage_weights
            keys += links
            weights += job.storage_weights.values()
            weights += link_weights
        self.ledger = ContentionLedger(
            resources,
            [(job.name, job.isolated_rate) for job in self.jobs],
            (rows, keys, weights),
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> InterferenceReport:
        """Advance all jobs to completion and report per-job slowdowns."""
        ledger = self.ledger
        report = InterferenceReport(ledger=ledger)
        solo_io_s = [
            job.total_bytes / float(ledger.allocate([row])[0])
            for row, job in enumerate(self.jobs)
        ]
        peak, io_start, finish = self._advance()
        for job, isolated_io, start, end in zip(self.jobs, solo_io_s, io_start, finish):
            shared_io = max(end - start, 0.0)
            report.outcomes.append(
                JobOutcome(
                    name=job.name,
                    nodes=job.nodes,
                    isolated_io_s=isolated_io,
                    shared_io_s=shared_io,
                    slowdown=shared_io / isolated_io if isolated_io > 0 else 1.0,
                    start_s=start,
                    finish_s=end,
                    total_bytes=job.total_bytes,
                )
            )
        report.peak_utilization = {
            key: value for key, value in zip(ledger.keys, peak) if value > 0.0
        }
        return report

    def _starved(self, rows: Sequence[int]) -> StarvedFlowError:
        touched = np.flatnonzero(self.ledger.touches[rows].any(axis=0))
        keys = sorted((self.ledger.keys[j] for j in touched), key=repr)
        names = sorted(self.ledger.flow_ids[row] for row in rows)
        return StarvedFlowError(
            f"jobs {names} were allocated rate 0.0 with no pending "
            f"arrival or completion left to free capacity; every shared "
            f"resource they touch is saturated: {keys}"
        )

    def _advance(self) -> tuple[list[float], list[float], list[float]]:
        """The fluid slice loop: run every job to completion from zero bytes.

        Returns each resource's peak utilization (fraction of capacity) and
        each job's I/O start and finish times; the jobs hold no run state,
        so a second :meth:`run` repeats the first.

        A plain-float loop.  Jobs are admitted in arrival order once ready
        within ``_BYTES_EPS`` of now; one admitted before its ``ready_s``
        also ends the slice there.  The live rows stay in ascending row
        order, the order the tests' scalar oracle visits them, and rates
        are solved only when that list changes.  Each solve folds the peak
        utilization of the columns two or more jobs touch, as sequential
        row-order sums.  A column only one job touches carries ``rate * w``
        alone, and ``x -> fl(fl(x * w) / c)`` is monotone, so its peak is
        set once at the end from that job's highest rate.  The report is
        bit-identical to the oracle's.
        """
        ledger = self.ledger
        capacity = ledger.capacity.tolist()
        common = ledger.touches.sum(axis=0) > 1
        shared_terms, single_terms = ledger.row_terms(common), ledger.row_terms(~common)
        ready = [job.ready_s for job in self.jobs]
        total = [job.total_bytes for job in self.jobs]
        done_at = [t - max(_BYTES_EPS, t * _REL_BYTES_EPS) for t in total]
        waiting = sorted(range(len(ready)), key=ready.__getitem__, reverse=True)
        done = [0.0] * len(ready)
        io_start = [0.0] * len(ready)
        finish = [0.0] * len(ready)
        top = [0.0] * len(ready)
        peak = [0.0] * len(capacity)
        live: list[int] = []
        rates: list[float] = []
        changed = False
        now = ready[waiting[-1]]
        while live or waiting:
            while waiting and ready[waiting[-1]] <= now + _BYTES_EPS:
                row = waiting.pop()
                insort(live, row)
                io_start[row] = max(now, ready[row])
                changed = True
            future = ready[waiting[-1]] if waiting else math.inf
            for row in live:
                if now < ready[row] < future:
                    future = ready[row]
            if not live:
                now = future
                continue
            if changed:
                changed = False
                rates = ledger.allocate(live).tolist()
                used: dict[int, float] = {}
                for row, rate in zip(live, rates):
                    top[row] = max(top[row], rate)
                    for j, w in shared_terms[row]:
                        used[j] = used.get(j, 0.0) + rate * w
                for j, value in used.items():
                    peak[j] = max(peak[j], value / capacity[j])
            if not any(rates):
                if future == math.inf:
                    raise self._starved(live)
                now = future
                continue
            horizon = min(now + _SLICE_S, future)
            for row, rate in zip(live, rates):
                if rate > 0.0:
                    horizon = min(horizon, now + (total[row] - done[row]) / rate)
            dt = max(horizon - now, 0.0)
            for row, rate in zip(live, rates):
                done[row] += rate * dt
            now = horizon
            running = [row for row in live if done[row] < done_at[row]]
            if len(running) < len(live):
                for row in live:
                    if done[row] >= done_at[row]:
                        finish[row] = now
                live, changed = running, True
            elif dt == 0.0:
                # A zero-width slice that completes nothing recomputes the
                # identical state next iteration — a numerical stall.
                raise self._starved(live)
        for row, terms in enumerate(single_terms):
            for j, w in terms:
                peak[j] = top[row] * w / capacity[j]
        return peak, io_start, finish

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def cross_job_link_sharing(self) -> dict[tuple[str, str], int]:
        """Number of interconnect links each job pair's traffic shares.

        A topology-aware or contiguous allocation should drive this towards
        zero; a scattered allocation interleaves jobs on routers and shares
        many links.
        """
        ledger = self.ledger
        links = np.array([key[0] == "link" for key in ledger.keys], dtype=bool)
        counts = ledger.sharing(links)
        names = ledger.flow_ids
        return {
            (names[a], names[b]): int(counts[a, b])
            for a, b in zip(*np.triu_indices(len(names), 1))
        }


def _shared_resources(ledger: ContentionLedger) -> dict[tuple[str, str], list[tuple]]:
    """The keys each sharing job pair both touches, in ``repr`` order: one
    AND of the touch matrix over the sharing pairs, with the shared columns
    permuted into ``repr`` order, and one ``np.nonzero`` split per pair."""
    common = np.flatnonzero(ledger.touches.sum(axis=0) > 1).tolist()
    order = sorted(common, key=lambda j: repr(ledger.keys[j]))
    keys = [ledger.keys[j] for j in order]
    touches = ledger.touches[:, order]
    row_a, row_b = np.nonzero(np.triu(ledger.sharing(), 1))
    pair, column = np.nonzero(touches[row_a] & touches[row_b])
    shared = [keys[j] for j in column.tolist()]
    bounds = [0, *(np.flatnonzero(np.diff(pair)) + 1).tolist(), len(shared)]
    names = ledger.flow_ids
    return {
        (names[a], names[b]): shared[lo:hi]
        for a, b, lo, hi in zip(row_a.tolist(), row_b.tolist(), bounds, bounds[1:])
    }
