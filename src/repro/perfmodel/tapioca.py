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
"""

from __future__ import annotations

import math

from repro.core.config import TapiocaConfig
from repro.core.partitioning import build_partitions
from repro.core.placement import place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.perfmodel.aggregation import AggregationPhaseModel
from repro.perfmodel.common import build_context, is_aligned
from repro.perfmodel.flows import analyze_flows
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.storage.base import IOPhaseProfile
from repro.storage.lustre import LustreStripeConfig, LustreModel
from repro.workloads.base import Workload


def model_tapioca(
    machine: Machine,
    workload: Workload,
    config: TapiocaConfig | None = None,
    *,
    access: str | None = None,
    ranks_per_node: int | None = None,
    filesystem=None,
    stripe: LustreStripeConfig | None = None,
    mapping=None,
    label: str = "TAPIOCA",
) -> IOEstimate:
    """Estimate the wall time of a TAPIOCA collective operation.

    Args:
        machine: platform model.
        workload: the declared workload.
        config: TAPIOCA configuration (aggregators, buffer size, placement,
            pipeline depth).
        access: override the workload's access direction.
        ranks_per_node: defaults to the machine's usual value.
        filesystem: optional file-system model override.
        stripe: optional Lustre striping of the output file.
        mapping: optional explicit rank-to-node mapping (defaults to block).
        label: method name recorded in the estimate.
    """
    config = config or TapiocaConfig()
    access = access or workload.access
    base_fs = filesystem if filesystem is not None else machine.filesystem()
    context = build_context(
        machine,
        workload,
        ranks_per_node=ranks_per_node,
        mapping=mapping,
        filesystem=base_fs,
        stripe=stripe if isinstance(base_fs, LustreModel) else None,
        shared_locks=config.shared_locks,
    )
    num_aggregators = config.resolve_num_aggregators(machine, context.num_ranks)
    partitions = build_partitions(
        workload,
        num_aggregators,
        machine=machine,
        mapping=context.mapping,
        partition_by=config.partition_by,
    )
    iface = TopologyInterface(machine, context.mapping)
    placement = place_aggregators(
        partitions,
        iface,
        strategy=config.placement,
        seed=config.placement_seed,
        granularity="node",
    )
    aggregator_nodes = [
        context.mapping.node(rank) for rank in placement.aggregators
    ]
    senders_by_aggregator: dict[int, list[int]] = {}
    for partition, node in zip(partitions, aggregator_nodes):
        senders = context.nodes_of_ranks(partition.ranks)
        existing = senders_by_aggregator.setdefault(node, [])
        senders_by_aggregator[node] = sorted(set(existing) | set(senders))
    flows = analyze_flows(machine.topology, senders_by_aggregator)
    aggregation_model = AggregationPhaseModel(
        machine=machine, flows=flows, ranks_per_node=context.ranks_per_node
    )
    buffer_size = config.buffer_size
    unit = context.filesystem.alignment_unit()
    # Per-partition rounds; partitions run concurrently, so the slowest
    # partition (most rounds / slowest fill) bounds the pipeline.
    max_rounds = 0
    worst_fill = 0.0
    election = 0.0
    for partition, node in zip(partitions, aggregator_nodes):
        total = partition.total_bytes
        if total == 0:
            continue
        rounds = max(1, math.ceil(total / buffer_size))
        max_rounds = max(max_rounds, rounds)
        round_bytes = total / rounds
        senders = senders_by_aggregator[node]
        fill = aggregation_model.round_fill_time(node, max(1, len(senders)), round_bytes)
        worst_fill = max(worst_fill, fill)
        election = max(election, aggregation_model.election_time(partition.size))
    if max_rounds == 0:
        phases = PhaseBreakdown()
        return IOEstimate(
            method=label,
            machine=machine.name,
            workload=workload.name,
            access=access,
            total_bytes=0.0,
            phases=phases,
            num_aggregators=num_aggregators,
            num_rounds=0,
        )
    total_bytes = float(workload.total_bytes())
    mean_round_bytes = min(buffer_size, total_bytes / num_aggregators / max_rounds)
    # TAPIOCA flushes full buffers at buffer-aligned boundaries of each
    # partition's data stream; alignment to the storage unit holds when the
    # buffer is a multiple of it (the buffer-size = stripe-size rule of
    # Table I).  Only the final, partially-filled round of each partition is
    # potentially unaligned, which is negligible over many rounds.
    aligned = is_aligned(buffer_size, unit)
    profile = IOPhaseProfile(
        total_bytes=mean_round_bytes * num_aggregators,
        streams=num_aggregators,
        request_size=max(1.0, mean_round_bytes),
        access=access,
        aligned=aligned,
        shared_locks=config.shared_locks,
        distinct_files=1,
    )
    t_io = context.filesystem.phase_time(profile)
    t_fill = worst_fill
    rounds = max_rounds
    phases = PhaseBreakdown()
    phases.overhead = election + aggregation_model.collective_overhead(
        context.num_ranks
    )
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
    rec = obs_recorder()
    if rec is not None:
        # The model's own phase terms, accumulated so `repro profile` can
        # print them next to the host-side span times of the same phases.
        rec.inc("model.phase_seconds", phases.aggregation, phase="aggregation")
        rec.inc("model.phase_seconds", phases.io, phase="io")
        rec.inc("model.phase_seconds", phases.overhead, phase="overhead")
        rec.inc("model.phase_seconds", phases.overlapped, phase="overlapped")
        rec.inc("model.estimates")
    details = {
        "contention": flows.mean_contention(),
        "placement": placement.strategy,
        "fill_time": t_fill,
        "io_time_per_round": t_io,
        "rounds": rounds,
        "aligned": aligned,
        # Full structures (not truncated): the multi-job subsystem derives
        # each job's per-link network demand from the real flow pattern.
        "aggregator_nodes": aggregator_nodes,
        "senders_by_aggregator": senders_by_aggregator,
    }
    return IOEstimate(
        method=label,
        machine=machine.name,
        workload=workload.name,
        access=access,
        total_bytes=total_bytes,
        phases=phases,
        num_aggregators=num_aggregators,
        num_rounds=rounds,
        details=details,
    )
