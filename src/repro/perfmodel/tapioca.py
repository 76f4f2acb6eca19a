"""Analytic model of TAPIOCA.

Mirrors :class:`repro.core.runtime.TapiocaIO` at large scale:

* one partition per aggregator, the aggregator elected by the configured
  placement strategy (node-granularity election — equivalent to the rank
  granularity one under the cost model);
* the *entire declared workload* of a partition is drained in rounds of
  ``buffer_size`` bytes, regardless of how many collective calls the
  application issued (the paper's Fig. 2 contrast with MPI I/O);
* flushes are full, ``buffer_size``-aligned requests;
* with ``pipeline_depth == 2`` the I/O of round ``r`` overlaps the
  aggregation of round ``r+1`` — the exposed time of ``R`` rounds is
  ``t_fill + (R-1)·max(t_fill, t_io) + t_io``.

A job is a :class:`TapiocaPlan`, estimated by the one binding pass of
:func:`repro.perfmodel.batch.estimate_plans` (one election, one routing of
the shared flow table, one fill-time pass) over all of a multi-job run's
jobs; :func:`model_tapioca` is that pass over one plan.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TapiocaConfig
from repro.core.partitioning import build_partitions
from repro.machine.machine import Machine
from repro.perfmodel.aggregation import collective_time
from repro.perfmodel.batch import Aggregation, ModelPlan, estimate_plans
from repro.perfmodel.common import is_aligned, record_phases
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.storage.base import IOPhaseProfile
from repro.workloads.base import Workload


class TapiocaPlan(ModelPlan):
    """One TAPIOCA job: its context, partitions and election strategy, from
    its configuration (aggregators, buffer size, placement, pipeline depth).
    Options are those of :class:`~repro.perfmodel.batch.ModelPlan`."""

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        config: TapiocaConfig | None = None,
        *,
        label: str = "TAPIOCA",
        **options,
    ) -> None:
        self.config = config = config or TapiocaConfig()
        super().__init__(
            machine, workload, label=label, shared_locks=config.shared_locks, **options
        )
        self.strategy, self.seed = config.placement, config.placement_seed
        self.partitions = build_partitions(
            workload,
            config.resolve_num_aggregators(machine, self.context.num_ranks),
            machine=machine,
            mapping=self.context.mapping,
            partition_by=config.partition_by,
        )

    def fill_rounds(self, aggregation: Aggregation) -> tuple[np.ndarray, np.ndarray]:
        """One fill per partition that moves bytes, of its bytes per round:
        partitions run concurrently, so the slowest bounds the pipeline."""
        totals = aggregation.totals
        self._active = np.flatnonzero(totals > 0)
        rounds = np.ceil(totals[self._active] / self.config.buffer_size)
        self._rounds = np.maximum(1, rounds).astype(np.int64)
        return aggregation.groups[self._active], totals[self._active] / self._rounds

    def finish(self, aggregation: Aggregation | None, fills: np.ndarray) -> IOEstimate:
        context, config = self.context, self.config
        num_partitions = len(self.partitions)
        if self._active.size == 0:
            return self.estimate(
                total_bytes=0.0,
                phases=PhaseBreakdown(),
                num_aggregators=num_partitions,
                num_rounds=0,
            )
        buffer_size = config.buffer_size
        unit = context.filesystem.alignment_unit()
        rounds = int(self._rounds.max())
        # The election grows with the partition size: the largest active
        # partition sets its one-off cost.
        election = collective_time(self.machine, int(self.partitions.sizes[self._active].max()))
        total_bytes = float(context.workload.total_bytes())
        mean_round_bytes = min(buffer_size, total_bytes / num_partitions / rounds)
        # TAPIOCA flushes full buffers at buffer-aligned boundaries of each
        # partition's data stream; alignment to the storage unit holds when the
        # buffer is a multiple of it (the buffer-size = stripe-size rule of
        # Table I).  Only the final, partially-filled round of each partition is
        # potentially unaligned, which is negligible over many rounds.
        aligned = is_aligned(buffer_size, unit)
        profile = IOPhaseProfile(
            total_bytes=mean_round_bytes * num_partitions,
            streams=num_partitions,
            request_size=max(1.0, mean_round_bytes),
            access=self.access,
            aligned=aligned,
            shared_locks=config.shared_locks,
            distinct_files=1,
        )
        t_io = context.filesystem.phase_time(profile)
        t_fill = float(fills.max())
        phases = PhaseBreakdown()
        phases.overhead = election + collective_time(self.machine, context.num_ranks)
        if config.pipeline_depth >= 2 and rounds > 1:
            if t_io >= t_fill:
                phases.aggregation = t_fill
                phases.io = rounds * t_io
                phases.overlapped = (rounds - 1) * t_fill
            else:
                phases.aggregation = rounds * t_fill
                phases.io = t_io
                phases.overlapped = (rounds - 1) * t_io
        else:
            phases.aggregation = rounds * t_fill
            phases.io = rounds * t_io
        record_phases(phases)
        details = {
            "contention": aggregation.flows.mean_contention(),
            "placement": self.strategy,
            "fill_time": t_fill,
            "io_time_per_round": t_io,
            "rounds": rounds,
            "aligned": aligned,
            # Full structures (not truncated): the multi-job subsystem derives
            # each job's per-link network demand from the same flow pattern.
            "aggregator_nodes": aggregation.aggregator_nodes,
            "senders_by_aggregator": aggregation.senders_by_aggregator,
        }
        return self.estimate(
            total_bytes=total_bytes,
            phases=phases,
            num_aggregators=num_partitions,
            num_rounds=rounds,
            details=details,
        )


def model_tapioca(
    machine: Machine, workload: Workload, config: TapiocaConfig | None = None, **options
) -> IOEstimate:
    """Estimate the wall time of a TAPIOCA collective operation: the one-plan
    call of :func:`~repro.perfmodel.batch.estimate_plans`.  Options are those
    of :class:`TapiocaPlan`."""
    return estimate_plans(machine, [TapiocaPlan(machine, workload, config, **options)])[0][0]
