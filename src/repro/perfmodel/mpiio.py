"""Analytic model of the ROMIO-style MPI I/O baseline.

Mirrors :class:`repro.iolib.twophase.TwoPhaseCollectiveIO` at large scale:
every collective call is handled independently — its byte range is split
into per-aggregator file domains, processed in rounds of ``cb_buffer_size``
with the aggregation and I/O phases strictly serialised — and the per-call
times are summed.  The aggregators come from the default (bridge-first /
rank-order) policy, and the file-system penalties (stripe/block alignment,
lock sharing) apply to whatever request sizes the per-call domains happen to
produce.  Without collective buffering every rank issues its own requests.

Like :mod:`repro.perfmodel.tapioca`, the model is two class methods over a
batch of plans (:meth:`MPIIOPlan.fill_rounds` and :meth:`MPIIOPlan.finish`),
run by :func:`repro.perfmodel.batch.estimate_plans`: every (plan, call)
pair is one entry of flat arrays, and each plan's per-call terms are summed
call by call in order.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.partitioning import Partitions, offsets_of
from repro.iolib.aggregators import block_sizes, select_default_aggregators
from repro.iolib.hints import MPIIOHints
from repro.machine.machine import Machine
from repro.perfmodel.aggregation import collective_times
from repro.perfmodel.batch import Fills, ModelPlan, Terms, estimate_plans
from repro.perfmodel.common import is_aligned
from repro.perfmodel.results import IOEstimate
from repro.storage.base import IOPhaseProfile
from repro.storage.gpfs import GPFSModel
from repro.workloads.base import Workload


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
        if not hints.collective_buffering:
            self.aggregates = False
            return
        self.aggregator_policy = aggregator_policy
        self.num_aggregators = max(
            1, min(hints.resolve_cb_nodes(self.context.num_nodes), self.context.num_ranks)
        )
        self.aggregation_inputs = (aggregator_policy, self.num_aggregators)
        self.shape = (self.context.num_ranks, self.num_aggregators)

    @cached_property
    def aggregator_ranks(self) -> list[int]:
        """Each block's aggregator rank, chosen on first use."""
        return select_default_aggregators(
            self.machine, self.context.mapping, self.num_aggregators, policy=self.aggregator_policy
        )

    @cached_property
    def partitions(self) -> Partitions | None:
        """Each aggregator's sender nodes: its rank block collapsed to one
        candidate per node, as the placement collapses a partition.  The
        blocks are contiguous, cover every rank once and carry no volume."""
        if not self.hints.collective_buffering:
            return None
        num_ranks = self.context.num_ranks
        return Partitions.from_sizes(
            block_sizes([num_ranks], self.num_aggregators),
            np.arange(num_ranks),
            np.zeros(num_ranks, dtype=np.int64),
        )

    def rank_volumes(self) -> np.ndarray:
        """The blocks carry no volume."""
        return np.zeros(self.context.num_ranks, dtype=np.int64)

    @classmethod
    def fill_rounds(cls, plans: list, aggregations: list) -> Fills:
        """Every aggregator's fill, once per collective call that moves bytes:
        each call is split into file domains on its own.  Without collective
        buffering a call's ranks write on their own and fill nothing."""
        calls = [
            [(k, size) for k, size in enumerate(p.context.workload.segment_sizes_per_call()) if size]
            for p in plans
        ]
        plan = np.repeat(np.arange(len(plans)), [len(made) for made in calls])
        per_rank = np.array([size for made in calls for _, size in made], dtype=np.int64)
        num_ranks = np.array([p.context.num_ranks for p in plans], dtype=np.int64)[plan]
        collective = np.array([a is not None for a in aggregations], dtype=bool)
        num_aggregators = np.array(
            [p.num_aggregators if a is not None else 1 for p, a in zip(plans, aggregations)],
            dtype=np.int64,
        )[plan]
        buffer_size = np.array([p.hints.cb_buffer_size for p in plans], dtype=np.int64)[plan]
        domain_bytes = per_rank.astype(np.float64) * num_ranks / num_aggregators
        rounds = np.maximum(1, np.ceil(domain_bytes / buffer_size)).astype(np.int64)
        round_bytes = domain_bytes / rounds
        # Alignment of the baseline's flushes.  ROMIO's GPFS driver aligns
        # its file domains to the GPFS block size, so on GPFS a round is
        # aligned as long as it spans at least one block (this is what
        # keeps the tuned MPI I/O competitive on Mira, Fig. 9).  The Lustre
        # path splits the call range evenly, so it is aligned only when
        # the arithmetic happens to work out — which it does not for
        # HACC-IO's 38-byte records (Figs. 13-14).
        units = [p.context.filesystem.alignment_unit() for p in plans]
        gpfs = [isinstance(p.context.filesystem, GPFSModel) for p in plans]
        aligned = [
            round_size >= units[i]
            if gpfs[i]
            else is_aligned(int(round_size), units[i]) and is_aligned(int(domain), units[i])
            for i, round_size, domain in zip(plan.tolist(), round_bytes.tolist(), domain_bytes.tolist())
        ]
        # Collective calls fill every aggregator of their plan, call by call.
        width = np.array([len(a.senders) if a is not None else 0 for a in aggregations])
        fills = width[plan] * collective[plan]
        call = np.repeat(np.arange(plan.size), fills)
        group = np.arange(call.size) - np.repeat(offsets_of(fills)[:-1], fills)
        state = (calls, plan, per_rank, units, rounds, round_bytes, aligned, fills)
        return Fills(plan[call], group, round_bytes[call], state)

    @classmethod
    def finish(cls, plans: list, aggregations: list, state: tuple, fills: np.ndarray) -> Terms:
        """Each plan's phase terms, summed call by call: a collective call
        costs its rounds of its slowest fill and of one flush per aggregator,
        plus one offset exchange; an independent call, every rank's request
        at once."""
        calls, plan, per_rank, units, rounds, round_bytes, aligned, width = state
        count, machine = len(plans), plans[0].machine
        t_fill = np.zeros(plan.size)
        filled = width > 0
        if filled.any():
            t_fill[filled] = np.maximum.reduceat(fills, offsets_of(width[filled])[:-1])
        rounds_list, round_bytes_list, t_fill_list = (
            rounds.tolist(), round_bytes.tolist(), t_fill.tolist()
        )
        exchange = collective_times(machine, [p.context.num_ranks for p in plans]).tolist()
        # Each plan's terms are added call by call, in call order.
        aggregation, io, overhead = [0.0] * count, [0.0] * count, [0.0] * count
        num_rounds = [0] * count
        t_io_list = []
        for c, (i, size) in enumerate(zip(plan.tolist(), per_rank.tolist())):
            p = plans[i]
            if aggregations[i] is None:
                profile = IOPhaseProfile(
                    total_bytes=float(size) * p.context.workload.num_ranks,
                    streams=p.context.num_ranks,
                    request_size=float(size),
                    access=p.access,
                    aligned=is_aligned(size, units[i]),
                    shared_locks=False,
                    distinct_files=1,
                )
                t_io_list.append(p.context.filesystem.phase_time(profile))
                io[i] += t_io_list[c]
                continue
            profile = IOPhaseProfile(
                total_bytes=round_bytes_list[c] * p.num_aggregators,
                streams=p.num_aggregators,
                request_size=max(1.0, round_bytes_list[c]),
                access=p.access,
                aligned=aligned[c],
                shared_locks=p.hints.shared_locks,
                distinct_files=1,
            )
            t_io_list.append(p.context.filesystem.phase_time(profile))
            call_rounds = rounds_list[c]
            aggregation[i] += call_rounds * t_fill_list[c]
            io[i] += call_rounds * t_io_list[c]
            overhead[i] += exchange[i]
            num_rounds[i] = max(num_rounds[i], call_rounds)
        bounds = offsets_of(np.bincount(plan, minlength=count)).tolist()

        def details(i: int) -> dict:
            found = aggregations[i]
            if found is None:
                return {"per_call": []}
            per_call = [
                {
                    "call": call_index,
                    "per_rank_bytes": per_rank_bytes,
                    "rounds": rounds_list[c],
                    "round_bytes": round_bytes_list[c],
                    "aligned": aligned[c],
                    "fill_time": t_fill_list[c],
                    "io_time": t_io_list[c],
                }
                for c, (call_index, per_rank_bytes) in zip(range(bounds[i], bounds[i + 1]), calls[i])
            ]
            return {
                "per_call": per_call,
                "contention": found.flows.mean_contention(),
                "aggregator_nodes": list(found.aggregator_nodes),
                "senders_by_aggregator": dict(found.senders),
            }

        collective = [found is not None for found in aggregations]
        return Terms(
            np.array([float(p.context.workload.total_bytes()) for p in plans]),
            np.array(aggregation),
            np.array(io),
            np.array(overhead),
            np.zeros(count),
            [p.num_aggregators if on else 0 for p, on in zip(plans, collective)],
            num_rounds,
            collective,
            details,
        )


def model_mpiio(
    machine: Machine, workload: Workload, hints: MPIIOHints | None = None, **options
) -> IOEstimate:
    """Estimate the wall time of the MPI I/O baseline for a workload: the
    one-plan call of :func:`~repro.perfmodel.batch.estimate_plans`.  Options
    are those of :class:`MPIIOPlan`."""
    return estimate_plans(machine, [MPIIOPlan(machine, workload, hints, **options)])[0]
