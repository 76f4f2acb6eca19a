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

from repro.core.cost_model import CandidateSets
from repro.core.partitioning import Partitions
from repro.core.topology_iface import TopologyInterface
from repro.iolib.aggregators import block_sizes, select_default_aggregators
from repro.iolib.hints import MPIIOHints
from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.perfmodel.aggregation import AggregationPhaseModel
from repro.perfmodel.common import ModelContext, build_context, is_aligned
from repro.perfmodel.flows import analyze_flows
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.storage.base import IOPhaseProfile
from repro.storage.lustre import LustreStripeConfig
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


def model_mpiio(
    machine: Machine,
    workload: Workload,
    hints: MPIIOHints | None = None,
    *,
    access: str | None = None,
    ranks_per_node: int | None = None,
    aggregator_policy: str = "default",
    filesystem=None,
    mapping=None,
    label: str = "MPI I/O",
) -> IOEstimate:
    """Estimate the wall time of the MPI I/O baseline for a workload.

    Args:
        machine: platform model.
        workload: the I/O workload (its ``access`` attribute is used unless
            ``access`` is given).
        hints: MPI-IO hints (striping hints are applied to the file system).
        access: override the workload's access direction.
        ranks_per_node: defaults to the machine's usual value.
        aggregator_policy: baseline aggregator policy (see
            :func:`repro.iolib.aggregators.select_default_aggregators`).
        filesystem: optional file-system model override.
        mapping: optional explicit rank-to-node mapping (defaults to block).
        label: method name recorded in the estimate.
    """
    hints = hints or MPIIOHints()
    access = access or workload.access
    stripe = hints.lustre_stripe()
    # Striping hints only apply when the target file system is Lustre.
    from repro.storage.lustre import LustreModel

    base_fs = filesystem if filesystem is not None else machine.filesystem()
    context = build_context(
        machine,
        workload,
        ranks_per_node=ranks_per_node,
        mapping=mapping,
        filesystem=base_fs,
        stripe=stripe if isinstance(base_fs, LustreModel) else None,
        shared_locks=hints.shared_locks,
    )
    phases = PhaseBreakdown()
    details: dict = {"per_call": []}
    num_aggregators = 0
    max_rounds = 0
    if not hints.collective_buffering:
        phases = _independent_estimate(context, access)
        return IOEstimate(
            method=label,
            machine=machine.name,
            workload=workload.name,
            access=access,
            total_bytes=float(workload.total_bytes()),
            phases=phases,
            num_aggregators=0,
            num_rounds=0,
            details=details,
        )
    num_aggregators = max(
        1, min(hints.resolve_cb_nodes(context.num_nodes), context.num_ranks)
    )
    aggregator_ranks = select_default_aggregators(
        machine, context.mapping, num_aggregators, policy=aggregator_policy
    )
    aggregator_nodes = [context.mapping.node(r) for r in aggregator_ranks]
    # Each aggregator's sender nodes: its rank block collapsed to one
    # candidate per node, as the placement collapses a partition.  The
    # blocks are contiguous and cover every rank once.
    blocks = Partitions.from_sizes(
        block_sizes([context.num_ranks], num_aggregators),
        np.arange(context.num_ranks),
        np.zeros(context.num_ranks, dtype=np.int64),
    )
    sets = CandidateSets.of(blocks, TopologyInterface(machine, context.mapping), "node")
    bounds = sets.offsets.tolist()
    block_nodes = sets.nodes.tolist()
    senders_by_aggregator: dict[int, list[int]] = {}
    for node, start, stop in zip(aggregator_nodes, bounds, bounds[1:]):
        senders = block_nodes[start:stop]
        existing = senders_by_aggregator.setdefault(node, [])
        senders_by_aggregator[node] = sorted(set(existing) | set(senders))
    flows = analyze_flows(machine.topology, senders_by_aggregator)
    aggregation_model = AggregationPhaseModel(
        machine=machine, flows=flows, ranks_per_node=context.ranks_per_node
    )
    unit = context.filesystem.alignment_unit()
    num_ranks = context.num_ranks
    fill_nodes = list(senders_by_aggregator)
    fill_senders = [max(1, len(senders_by_aggregator[node])) for node in fill_nodes]
    for call_index, per_rank_bytes in enumerate(workload.segment_sizes_per_call()):
        if per_rank_bytes == 0:
            continue
        call_bytes = float(per_rank_bytes) * num_ranks
        domain_bytes = call_bytes / num_aggregators
        rounds = max(1, math.ceil(domain_bytes / hints.cb_buffer_size))
        round_bytes = domain_bytes / rounds
        max_rounds = max(max_rounds, rounds)
        # Alignment of the baseline's flushes.  ROMIO's GPFS driver aligns its
        # file domains to the GPFS block size, so on GPFS a round is aligned
        # as long as it spans at least one block (this is what keeps the
        # tuned MPI I/O competitive on Mira, Fig. 9).  The Lustre path splits
        # the call range evenly, so it is aligned only when the arithmetic
        # happens to work out — which it does not for HACC-IO's 38-byte
        # records (Figs. 13-14).
        from repro.storage.gpfs import GPFSModel

        if isinstance(context.filesystem, GPFSModel):
            aligned = round_bytes >= unit
        else:
            aligned = is_aligned(int(round_bytes), unit) and is_aligned(
                int(domain_bytes), unit
            )
        t_fill = float(
            aggregation_model.round_fill_times(
                fill_nodes, fill_senders, round_bytes
            ).max()
        )
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
        overhead = aggregation_model.collective_overhead(num_ranks)
        call_aggregation = rounds * t_fill
        call_io = rounds * t_io
        phases.aggregation += call_aggregation
        phases.io += call_io
        phases.overhead += overhead
        details["per_call"].append(
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
    details["contention"] = flows.mean_contention()
    details["aggregator_nodes"] = aggregator_nodes
    details["senders_by_aggregator"] = senders_by_aggregator
    rec = obs_recorder()
    if rec is not None:
        # Same phase terms as the TAPIOCA model, so `repro profile` shows
        # one combined C1/C2/overhead breakdown whichever model a figure uses.
        rec.inc("model.phase_seconds", phases.aggregation, phase="aggregation")
        rec.inc("model.phase_seconds", phases.io, phase="io")
        rec.inc("model.phase_seconds", phases.overhead, phase="overhead")
        rec.inc("model.phase_seconds", phases.overlapped, phase="overlapped")
        rec.inc("model.estimates")
    return IOEstimate(
        method=label,
        machine=machine.name,
        workload=workload.name,
        access=access,
        total_bytes=float(workload.total_bytes()),
        phases=phases,
        num_aggregators=num_aggregators,
        num_rounds=max_rounds,
        details=details,
    )
