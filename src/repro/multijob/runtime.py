"""Fluid multi-job runtime: time-sliced co-execution of concurrent jobs.

:class:`MultiJobRuntime` runs several simulated jobs against one machine.
Each job is allocated nodes by a :class:`~repro.multijob.allocator.NodeAllocator`,
estimated in isolation on exactly that allocation (the baseline), and
registered as a flow in a :class:`~repro.multijob.contention.ContentionLedger`
whose resources are the machine's shared storage surfaces (OSTs, LNET, I/O
nodes, backend, burst-buffer drain) plus the interconnect links the job's
aggregation traffic crosses.

Execution is a fluid (rate-based) simulation advanced in time slices: within
a slice the ledger's max-min fair rates are constant, so progress integrates
exactly; slices additionally end at every arrival and completion, which is
where the active flow set — and therefore the fair allocation — changes.
Each job's *slowdown* is its shared-machine I/O time divided by its isolated
I/O time; a job whose resources nobody else touches reports exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.machine.machine import Machine
from repro.multijob.allocator import NodeAllocator
from repro.multijob.contention import ContentionLedger
from repro.multijob.job import Job, JobSpec, bind_job
from repro.utils.validation import require, require_positive

#: Completion tolerance: a job is done when this close to its total bytes.
_BYTES_EPS = 1e-6

#: Relative completion tolerance: for multi-gigabyte jobs one float ulp of
#: ``total_bytes`` exceeds the absolute tolerance, so without a relative
#: term a job could sit within rounding error of completion while
#: ``now + remaining/rate == now`` — a zero-width slice loop.
_REL_BYTES_EPS = 1e-12


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


@dataclass
class InterferenceReport:
    """Result of one multi-job scenario.

    Attributes:
        outcomes: per-job outcomes, in spec order.
        peak_utilization: worst observed fraction of each shared resource's
            capacity over all slices (conservation requires <= 1).
        shared_resources: for each unordered job pair that shares at least
            one resource, the shared keys.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    peak_utilization: dict[tuple, float] = field(default_factory=dict)
    shared_resources: dict[tuple[str, str], list[tuple]] = field(default_factory=dict)

    def outcome_of(self, name: str) -> JobOutcome:
        """Look up one job's outcome by name."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no job named {name!r} in this report")

    def max_slowdown(self) -> float:
        """The worst per-job slowdown of the scenario."""
        return max(outcome.slowdown for outcome in self.outcomes)

    def makespan_s(self) -> float:
        """Time the last job finished."""
        return max(outcome.finish_s for outcome in self.outcomes)

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
        slice_s: maximum fluid time slice; rates are also recomputed at every
            arrival and completion, so the slice only bounds reporting
            granularity, not correctness.
        include_network: whether interconnect links join the ledger next to
            the storage resources.
    """

    def __init__(
        self,
        machine: Machine,
        specs: Sequence[JobSpec],
        *,
        allocation_policy: str = "contiguous",
        slice_s: float = 1.0,
        include_network: bool = True,
    ) -> None:
        require(len(specs) > 0, "no jobs to run")
        names = [spec.name for spec in specs]
        require(len(set(names)) == len(names), "job names must be unique")
        require_positive(slice_s, "slice_s")
        self.machine = machine
        self.slice_s = float(slice_s)
        self.allocator = NodeAllocator(machine, allocation_policy)
        self.ledger = ContentionLedger()
        self.jobs: list[Job] = []
        # Storage resources exist machine-wide, before any job arrives.
        # Capacities follow the scenario's access direction; mixed read/write
        # scenarios conservatively use the (lower) write capacities.
        self._access = (
            "read"
            if all(spec.workload.access == "read" for spec in specs)
            else "write"
        )
        for resource in machine.storage_resources(self._access):
            self.ledger.add_resource(resource.key, resource.capacity)
        for spec in specs:
            allocation = self.allocator.allocate(spec.name, spec.num_nodes)
            job = bind_job(
                machine, spec, allocation.nodes, include_network=include_network
            )
            self.jobs.append(job)
            self._register(job)

    def _register(self, job: Job) -> None:
        """Register a job's resources (idempotent) and its flow in the ledger."""
        for key, capacity in job.network_capacities.items():
            self.ledger.add_resource(key, capacity)
        # A job staging through its own file-system override (e.g. a shared
        # burst buffer) may reference resources the machine model does not
        # enumerate; register them from the override.
        missing = set(job.storage_weights) - set(self.ledger.resources)
        if missing and job.spec.filesystem is not None:
            for resource in job.spec.filesystem.shared_resources(self._access):
                if resource.key in missing:
                    self.ledger.add_resource(resource.key, resource.capacity)
        self.ledger.register_flow(job.name, job.isolated_rate, job.weights())

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> InterferenceReport:
        """Advance all jobs to completion and report per-job slowdowns."""
        report = InterferenceReport()
        for index, job_a in enumerate(self.jobs):
            for job_b in self.jobs[index + 1 :]:
                shared = self.ledger.shared_between(job_a.name, job_b.name)
                if shared:
                    report.shared_resources[(job_a.name, job_b.name)] = shared
        peak = {key: 0.0 for key in self.ledger.resources}
        solo_io_s = {
            job.name: job.total_bytes / self.ledger.allocate([job.name])[job.name]
            for job in self.jobs
        }
        now = min(job.ready_s for job in self.jobs)
        self._advance(peak, now)
        for job in self.jobs:
            shared_io = max(job.finish_s - job.io_start_s, 0.0)
            isolated_io = solo_io_s[job.name]
            report.outcomes.append(
                JobOutcome(
                    name=job.name,
                    nodes=job.nodes,
                    isolated_io_s=isolated_io,
                    shared_io_s=shared_io,
                    slowdown=shared_io / isolated_io if isolated_io > 0 else 1.0,
                    start_s=job.io_start_s,
                    finish_s=job.finish_s,
                    total_bytes=job.total_bytes,
                )
            )
        report.peak_utilization = {
            key: value for key, value in peak.items() if value > 0.0
        }
        return report

    def _starved(self, names: Sequence[str]) -> StarvedFlowError:
        keys = sorted(
            {key for name in names for key in self.ledger.flows[name].weights},
            key=repr,
        )
        return StarvedFlowError(
            f"jobs {sorted(names)} were allocated rate 0.0 with no pending "
            f"arrival or completion left to free capacity; every shared "
            f"resource they touch is saturated: {keys}"
        )

    def _advance(self, peak: dict[tuple, float], now: float) -> None:
        """The fluid slice loop: run every pending job to completion.

        Per-job bytes and readiness live in numpy arrays, every completion
        horizon folds into one ``np.min``, and — because the ledger memoises
        allocations per active-flow tuple — the per-slice ``allocate`` call
        is a dict hit whenever the active set is unchanged.  Peak
        utilization only changes when the active set (and therefore the
        memoised allocation) does, so it is re-folded just on those slices;
        each individual update uses the same arithmetic as a plain per-job
        loop (the tests' scalar oracle), keeping the report bit-identical.
        """
        jobs = self.jobs
        names = [job.name for job in jobs]
        ready = np.array([job.ready_s for job in jobs])
        total = np.array([job.total_bytes for job in jobs])
        done_at = total - np.maximum(_BYTES_EPS, total * _REL_BYTES_EPS)
        done = np.array([job.bytes_done for job in jobs])
        io_start: list[float | None] = [job.io_start_s for job in jobs]
        finish: list[float | None] = [job.finish_s for job in jobs]
        pending = np.ones(len(jobs), dtype=bool)
        last_active: tuple[int, ...] | None = None
        while pending.any():
            active = pending & (ready <= now + _BYTES_EPS)
            future = ready[pending & (ready > now)]
            if not active.any():
                now = float(np.min(future))
                continue
            live = np.flatnonzero(active)
            for i in live:
                if io_start[i] is None:
                    io_start[i] = max(now, float(ready[i]))
            rates_by_name = self.ledger.allocate([names[i] for i in live])
            rates = np.array([rates_by_name[names[i]] for i in live])
            if not rates.any():
                if future.size == 0:
                    raise self._starved([names[i] for i in live])
                now = float(np.min(future))
                continue
            key = tuple(live)
            if key != last_active:
                last_active = key
                for res_key, usage in self.ledger.utilization(rates_by_name).items():
                    capacity = self.ledger.resources[res_key]
                    peak[res_key] = max(peak[res_key], usage / capacity)
            horizon = now + self.slice_s
            if future.size:
                horizon = min(horizon, float(np.min(future)))
            moving = rates > 0.0
            if moving.any():
                remaining = total[live] - done[live]
                horizon = min(
                    horizon, float(np.min(now + remaining[moving] / rates[moving]))
                )
            dt = max(horizon - now, 0.0)
            done[live] += rates * dt
            now = horizon
            completed = live[done[live] >= done_at[live]]
            for i in completed:
                finish[i] = now
                self.ledger.remove_flow(names[i])
                pending[i] = False
            if dt == 0.0 and completed.size == 0:
                # A zero-width slice that completes nothing recomputes the
                # identical state next iteration — a numerical stall.
                raise self._starved([names[i] for i in live])
        for i, job in enumerate(jobs):
            job.bytes_done = float(done[i])
            job.io_start_s = io_start[i]
            job.finish_s = finish[i]

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def cross_job_link_sharing(self) -> dict[tuple[str, str], int]:
        """Number of interconnect links each job pair's traffic shares.

        A topology-aware or contiguous allocation should drive this towards
        zero; a scattered allocation interleaves jobs on routers and shares
        many links.
        """
        sharing: dict[tuple[str, str], int] = {}
        for index, job_a in enumerate(self.jobs):
            for job_b in self.jobs[index + 1 :]:
                shared = set(job_a.network_weights) & set(job_b.network_weights)
                sharing[(job_a.name, job_b.name)] = len(shared)
        return sharing
