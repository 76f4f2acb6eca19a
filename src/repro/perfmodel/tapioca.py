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

from typing import NamedTuple

import numpy as np

from repro.core.config import TapiocaConfig
from repro.core.partitioning import Partitions, build_partitions
from repro.core.placement import PlacementResult, place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.perfmodel.aggregation import AggregationPhaseModel
from repro.perfmodel.common import ModelContext, build_context, is_aligned
from repro.perfmodel.flows import analyze_flows
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.storage.base import IOPhaseProfile
from repro.storage.lustre import LustreStripeConfig, LustreModel
from repro.workloads.base import Workload


class TapiocaPlacement(NamedTuple):
    """The analytic model's election and everything it was built from."""

    context: ModelContext
    partitions: Partitions
    iface: TopologyInterface
    placement: PlacementResult


def place_tapioca(
    machine: Machine,
    workload: Workload,
    config: TapiocaConfig,
    *,
    ranks_per_node: int | None = None,
    filesystem=None,
    stripe: LustreStripeConfig | None = None,
    mapping=None,
) -> TapiocaPlacement:
    """Context → partitions → interface → node-granularity placement.

    The one construction behind :func:`model_tapioca` and the placement
    optimality certificate
    (:func:`repro.placement_opt.certify.problem_for_scenario`), so the
    certificate speaks about exactly the placement the model elects.
    Arguments are those of :func:`model_tapioca`.
    """
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
    return TapiocaPlacement(context, partitions, iface, placement)


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
    context, partitions, _iface, placement = place_tapioca(
        machine,
        workload,
        config,
        ranks_per_node=ranks_per_node,
        filesystem=filesystem,
        stripe=stripe,
        mapping=mapping,
    )
    sets = placement.candidates
    aggregator_nodes = context.mapping.nodes(placement.aggregators).tolist()
    # Sender node sets come from the placement's per-node collapse.
    node_lists = sets.nodes.tolist()
    bounds = sets.offsets.tolist()
    senders_by_aggregator: dict[int, list[int]] = {}
    for node, start, stop in zip(aggregator_nodes, bounds, bounds[1:]):
        existing = senders_by_aggregator.setdefault(node, [])
        senders_by_aggregator[node] = sorted(set(existing) | set(node_lists[start:stop]))
    flows = analyze_flows(machine.topology, senders_by_aggregator)
    aggregation_model = AggregationPhaseModel(
        machine=machine, flows=flows, ranks_per_node=context.ranks_per_node
    )
    buffer_size = config.buffer_size
    unit = context.filesystem.alignment_unit()
    # Per-partition rounds; partitions run concurrently, so the slowest
    # partition (most rounds / slowest fill) bounds the pipeline.  Empty
    # partitions take no part.
    totals = sets.totals(sets.volumes)
    active = np.flatnonzero(totals > 0)
    num_partitions = len(partitions)
    if active.size == 0:
        phases = PhaseBreakdown()
        return IOEstimate(
            method=label,
            machine=machine.name,
            workload=workload.name,
            access=access,
            total_bytes=0.0,
            phases=phases,
            num_aggregators=num_partitions,
            num_rounds=0,
        )
    rounds_of = np.maximum(1, np.ceil(totals[active] / buffer_size)).astype(np.int64)
    max_rounds = int(rounds_of.max())
    nodes_of = [aggregator_nodes[i] for i in active.tolist()]
    worst_fill = float(
        aggregation_model.round_fill_times(
            nodes_of,
            [len(senders_by_aggregator[node]) for node in nodes_of],
            totals[active] / rounds_of,
        ).max()
    )
    # election_time grows with the partition size: the largest active
    # partition sets the one-off election cost.
    election = aggregation_model.election_time(int(partitions.sizes[active].max()))
    total_bytes = float(workload.total_bytes())
    mean_round_bytes = min(buffer_size, total_bytes / num_partitions / max_rounds)
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
        num_aggregators=num_partitions,
        num_rounds=rounds,
        details=details,
    )
