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

from functools import cached_property

import numpy as np

from repro.core.config import TapiocaConfig
from repro.core.partitioning import Partitions, build_partitions
from repro.machine.machine import Machine
from repro.perfmodel.aggregation import collective_times
from repro.perfmodel.batch import Fills, ModelPlan, Terms, estimate_plans
from repro.perfmodel.common import is_aligned
from repro.perfmodel.results import IOEstimate
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
        self.num_aggregators = config.resolve_num_aggregators(machine, self.context.num_ranks)
        if config.partition_by == "contiguous":
            self.shape = (self.context.num_ranks, self.num_aggregators)
        volume = workload.uniform_rank_bytes()
        if volume is not None:
            self.aggregation_inputs = (
                self.strategy, self.seed, self.num_aggregators, config.partition_by, volume
            )

    @cached_property
    def partitions(self) -> Partitions:
        """The aggregation partitions, built on first use."""
        return build_partitions(
            self.context.workload,
            self.num_aggregators,
            machine=self.machine,
            mapping=self.context.mapping,
            partition_by=self.config.partition_by,
        )

    def rank_volumes(self) -> np.ndarray:
        """Bytes of every rank: the partitions' volumes."""
        return self.context.workload.rank_bytes()

    @classmethod
    def fill_rounds(cls, plans: list, aggregations: list) -> Fills:
        """One fill per partition that moves bytes, of its bytes per round:
        partitions run concurrently, so the slowest bounds the pipeline."""
        counts = [aggregation.totals.size for aggregation in aggregations]
        totals = np.concatenate([aggregation.totals for aggregation in aggregations])
        active = np.flatnonzero(totals > 0)
        plan = np.repeat(np.arange(len(plans)), counts)[active]
        buffer_size = np.array([p.config.buffer_size for p in plans])
        totals = totals[active]
        rounds = np.maximum(1, np.ceil(totals / buffer_size[plan])).astype(np.int64)
        groups = np.concatenate([aggregation.groups for aggregation in aggregations])[active]
        return Fills(plan, groups, totals / rounds, (counts, plan, rounds, buffer_size))

    @classmethod
    def finish(cls, plans: list, aggregations: list, state: tuple, fills: np.ndarray) -> Terms:
        """The pipelined phase terms of every plan: ``R`` rounds of its
        slowest fill and of one flush of a mean-sized round per partition."""
        counts, plan, rounds, buffer_size = state
        count = len(plans)
        num_rounds = np.zeros(count, dtype=np.int64)
        np.maximum.at(num_rounds, plan, rounds)
        t_fill = np.zeros(count)
        np.maximum.at(t_fill, plan, fills)
        total_bytes = np.array([float(p.context.workload.total_bytes()) for p in plans])
        mean_round_bytes = np.minimum(
            buffer_size, total_bytes / counts / np.maximum(num_rounds, 1)
        ).tolist()
        # TAPIOCA flushes full buffers at buffer-aligned boundaries of each
        # partition's data stream; alignment to the storage unit holds when the
        # buffer is a multiple of it (the buffer-size = stripe-size rule of
        # Table I).  Only the final, partially-filled round of each partition is
        # potentially unaligned, which is negligible over many rounds.
        aligned = [
            is_aligned(p.config.buffer_size, p.context.filesystem.alignment_unit()) for p in plans
        ]
        rounds_list = num_rounds.tolist()
        t_io = np.array(
            [
                p.context.filesystem.phase_time(
                    IOPhaseProfile(
                        total_bytes=mean * partitions,
                        streams=partitions,
                        request_size=max(1.0, mean),
                        access=p.access,
                        aligned=flush_aligned,
                        shared_locks=p.config.shared_locks,
                        distinct_files=1,
                    )
                )
                if moving
                else 0.0
                for p, moving, mean, partitions, flush_aligned in zip(
                    plans, rounds_list, mean_round_bytes, counts, aligned
                )
            ]
        )
        active = num_rounds > 0
        # The election grows with the partition size: the largest active
        # partition sets its one-off cost.
        machine = plans[0].machine
        overhead = collective_times(
            machine, [aggregation.largest_active for aggregation in aggregations]
        ) + collective_times(machine, [p.context.num_ranks for p in plans])
        # With ``pipeline_depth == 2`` the I/O of round r overlaps the
        # aggregation of round r + 1; the slower phase is exposed R times
        # and the faster one R - 1 times hidden.
        pipelined = (np.array([p.config.pipeline_depth for p in plans]) >= 2) & (num_rounds > 1)
        io_bound = t_io >= t_fill
        t_fill_list, t_io_list = t_fill.tolist(), t_io.tolist()

        def details(i: int) -> dict:
            if not rounds_list[i]:
                return {}
            found = aggregations[i]
            return {
                "contention": found.flows.mean_contention(),
                "placement": plans[i].strategy,
                "fill_time": t_fill_list[i],
                "io_time_per_round": t_io_list[i],
                "rounds": rounds_list[i],
                "aligned": aligned[i],
                # Full structures (not truncated): the multi-job subsystem
                # derives each job's per-link network demand from the same
                # flow pattern.
                "aggregator_nodes": list(found.aggregator_nodes),
                "senders_by_aggregator": dict(found.senders),
            }

        return Terms(
            np.where(active, total_bytes, 0.0),
            np.where(pipelined & io_bound, t_fill, num_rounds * t_fill),
            np.where(pipelined & ~io_bound, t_io, num_rounds * t_io),
            np.where(active, overhead, 0.0),
            np.where(pipelined, (num_rounds - 1) * np.minimum(t_fill, t_io), 0.0),
            counts,
            num_rounds,
            active,
            details,
        )


def model_tapioca(
    machine: Machine, workload: Workload, config: TapiocaConfig | None = None, **options
) -> IOEstimate:
    """Estimate the wall time of a TAPIOCA collective operation: the one-plan
    call of :func:`~repro.perfmodel.batch.estimate_plans`.  Options are those
    of :class:`TapiocaPlan`."""
    return estimate_plans(machine, [TapiocaPlan(machine, workload, config, **options)])[0]
