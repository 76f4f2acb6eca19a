"""Analytic model of the ROMIO-style MPI I/O baseline.

Mirrors :class:`repro.iolib.twophase.TwoPhaseCollectiveIO` at large scale:
every collective call is handled independently — its byte range is split
into per-aggregator file domains, processed in rounds of ``cb_buffer_size``
with the aggregation and I/O phases strictly serialised — and the per-call
times are summed.  The aggregators come from the default (bridge-first /
rank-order) policy, and the file-system penalties (stripe/block alignment,
lock sharing) apply to whatever request sizes the per-call domains happen to
produce.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.partitioning import Partitions
from repro.iolib.aggregators import block_sizes, select_default_aggregators
from repro.iolib.hints import MPIIOHints
from repro.machine.machine import Machine
from repro.perfmodel.aggregation import collective_time
from repro.perfmodel.batch import Aggregation, ModelPlan, estimate_plans
from repro.perfmodel.common import ModelContext, is_aligned, record_phases
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.storage.base import IOPhaseProfile
from repro.storage.gpfs import GPFSModel
from repro.workloads.base import Workload


def _independent_estimate(context: ModelContext, access: str) -> PhaseBreakdown:
    """Model of independent (non-collective-buffered) I/O: every rank on its own."""
    workload = context.workload
    sizes = workload.segment_sizes_per_call()
    phases = PhaseBreakdown()
    unit = context.filesystem.alignment_unit()
    for per_rank in sizes:
        if per_rank == 0:
            continue
        profile = IOPhaseProfile(
            total_bytes=float(per_rank) * workload.num_ranks,
            streams=context.num_ranks,
            request_size=float(per_rank),
            access=access,
            aligned=is_aligned(per_rank, unit),
            shared_locks=False,
            distinct_files=1,
        )
        phases.io += context.filesystem.phase_time(profile)
    return phases


class MPIIOPlan(ModelPlan):
    """One MPI I/O job: its context, file-domain blocks and their fixed
    aggregators from the baseline ``aggregator_policy`` (see
    :func:`repro.iolib.aggregators.select_default_aggregators`); no blocks
    without collective buffering.  Striping hints apply to the file system.
    Options are those of :class:`~repro.perfmodel.batch.ModelPlan`."""

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        hints: MPIIOHints | None = None,
        *,
        aggregator_policy: str = "default",
        label: str = "MPI I/O",
        **options,
    ) -> None:
        self.hints = hints = hints or MPIIOHints()
        super().__init__(
            machine,
            workload,
            label=label,
            stripe=hints.lustre_stripe(),
            shared_locks=hints.shared_locks,
            **options,
        )
        context = self.context
        if not hints.collective_buffering:
            return
        num_ranks = context.num_ranks
        self.num_aggregators = max(1, min(hints.resolve_cb_nodes(context.num_nodes), num_ranks))
        self.aggregator_ranks = select_default_aggregators(
            machine, context.mapping, self.num_aggregators, policy=aggregator_policy
        )
        # Each aggregator's sender nodes: its rank block collapsed to one
        # candidate per node, as the placement collapses a partition.  The
        # blocks are contiguous and cover every rank once.
        self.partitions = Partitions.from_sizes(
            block_sizes([num_ranks], self.num_aggregators),
            np.arange(num_ranks),
            np.zeros(num_ranks, dtype=np.int64),
        )

    def fill_rounds(self, aggregation: Aggregation) -> tuple[np.ndarray, np.ndarray]:
        """Every aggregator's fill, once per collective call that moves bytes:
        each call is split into file domains on its own."""
        unit = self.context.filesystem.alignment_unit()
        self._calls = []
        for call_index, per_rank_bytes in enumerate(self.context.workload.segment_sizes_per_call()):
            if per_rank_bytes == 0:
                continue
            domain_bytes = float(per_rank_bytes) * self.context.num_ranks / self.num_aggregators
            rounds = max(1, math.ceil(domain_bytes / self.hints.cb_buffer_size))
            round_bytes = domain_bytes / rounds
            # Alignment of the baseline's flushes.  ROMIO's GPFS driver aligns
            # its file domains to the GPFS block size, so on GPFS a round is
            # aligned as long as it spans at least one block (this is what
            # keeps the tuned MPI I/O competitive on Mira, Fig. 9).  The Lustre
            # path splits the call range evenly, so it is aligned only when
            # the arithmetic happens to work out — which it does not for
            # HACC-IO's 38-byte records (Figs. 13-14).
            if isinstance(self.context.filesystem, GPFSModel):
                aligned = round_bytes >= unit
            else:
                aligned = is_aligned(int(round_bytes), unit) and is_aligned(int(domain_bytes), unit)
            self._calls.append((call_index, per_rank_bytes, rounds, round_bytes, aligned))
        count = len(aggregation.senders_by_aggregator)
        return np.tile(np.arange(count), len(self._calls)), np.repeat(
            [call[3] for call in self._calls], count
        )

    def finish(self, aggregation: Aggregation | None, fills: np.ndarray) -> IOEstimate:
        context, hints, access = self.context, self.hints, self.access
        estimate = self.estimate(
            total_bytes=float(context.workload.total_bytes()),
            phases=PhaseBreakdown(),
            num_aggregators=0,
            num_rounds=0,
            details={"per_call": []},
        )
        if aggregation is None:
            estimate.phases = _independent_estimate(context, access)
            return estimate
        phases, num_aggregators = estimate.phases, self.num_aggregators
        senders = aggregation.senders_by_aggregator
        for (call_index, per_rank_bytes, rounds, round_bytes, aligned), call_fills in zip(
            self._calls, fills.reshape(len(self._calls), len(senders))
        ):
            t_fill = float(call_fills.max())
            profile = IOPhaseProfile(
                total_bytes=round_bytes * num_aggregators,
                streams=num_aggregators,
                request_size=max(1.0, round_bytes),
                access=access,
                aligned=aligned,
                shared_locks=hints.shared_locks,
                distinct_files=1,
            )
            t_io = context.filesystem.phase_time(profile)
            phases.aggregation += rounds * t_fill
            phases.io += rounds * t_io
            phases.overhead += collective_time(self.machine, context.num_ranks)
            estimate.details["per_call"].append(
                {
                    "call": call_index,
                    "per_rank_bytes": per_rank_bytes,
                    "rounds": rounds,
                    "round_bytes": round_bytes,
                    "aligned": aligned,
                    "fill_time": t_fill,
                    "io_time": t_io,
                }
            )
        estimate.details["contention"] = aggregation.flows.mean_contention()
        estimate.details["aggregator_nodes"] = aggregation.aggregator_nodes
        estimate.details["senders_by_aggregator"] = senders
        estimate.num_aggregators = num_aggregators
        estimate.num_rounds = max((call[2] for call in self._calls), default=0)
        record_phases(phases)
        return estimate


def model_mpiio(
    machine: Machine, workload: Workload, hints: MPIIOHints | None = None, **options
) -> IOEstimate:
    """Estimate the wall time of the MPI I/O baseline for a workload: the
    one-plan call of :func:`~repro.perfmodel.batch.estimate_plans`.  Options
    are those of :class:`MPIIOPlan`."""
    return estimate_plans(machine, [MPIIOPlan(machine, workload, hints, **options)])[0][0]
