"""Per-job oracle for the columnar binding of a multi-job run.

:class:`repro.multijob.runtime.MultiJobRuntime` allocates every job in one
walk, binds them all in one columnar pass
(:func:`repro.multijob.job.bind_jobs` over
:func:`repro.perfmodel.batch.estimate_plans`) and fills the contention
ledger from ``(row, key, weight)`` terms.  This module is the per-job
binding that pass replaced, kept readable: :func:`bind_job` maps one spec
onto its nodes, builds its partitions, elects its aggregators, collects
each aggregator's senders in a dictionary, routes them, and prices the
estimate with the scalar TAPIOCA and MPI I/O expressions, one job at a
time; :func:`ledger` builds the ledger matrix from per-flow weight
dictionaries, one cell at a time.  :func:`job_fields` and
:func:`ledger_fields` turn both sides into plain values (floats as hex,
scalars tagged with their type) for exact comparison.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from repro.core.cost_model import CandidateSets
from repro.core.placement import elect_partitions
from repro.core.topology_iface import TopologyInterface
from repro.iolib.hints import MPIIOHints
from repro.multijob.contention import _EPS
from repro.multijob.job import storage_demand_weights
from repro.perfmodel.aggregation import collective_time, fill_times
from repro.perfmodel.flows import analyze_flows
from repro.perfmodel.mpiio import MPIIOPlan
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.perfmodel.tapioca import TapiocaPlan
from repro.storage.base import IOPhaseProfile
from repro.storage.gpfs import GPFSModel
from repro.topology.mapping import RankMapping
from reference.demands import network_demand_weights


def is_aligned(value, unit) -> bool:
    """Whether ``value`` is a multiple of the alignment unit."""
    return unit <= 1 or value % unit == 0


def allocation_mapping(machine, spec, nodes) -> RankMapping:
    """The spec's ranks filling its nodes in order, ``ranks_per_node`` each."""
    node_list = [int(node) for node in nodes]
    fill = np.minimum(np.arange(spec.num_ranks) // spec.ranks_per_node, len(node_list) - 1)
    return RankMapping(np.array(node_list)[fill], machine.num_nodes, spec.ranks_per_node)


def bind_job(machine, spec, nodes) -> SimpleNamespace:
    """One spec bound alone to ``nodes``: its fields as a namespace.  The
    storage weights read the file system the job's plan priced."""
    mapping = allocation_mapping(machine, spec, nodes)
    options = dict(
        ranks_per_node=spec.ranks_per_node,
        filesystem=spec.filesystem,
        stripe=spec.stripe,
        mapping=mapping,
    )
    if spec.method == "tapioca":
        plan = TapiocaPlan(machine, spec.workload, spec.config, **options)
    else:
        plan = MPIIOPlan(machine, spec.workload, spec.hints or MPIIOHints(), **options)
    aggregation = _aggregate(machine, plan) if plan.aggregates else None
    if isinstance(plan, TapiocaPlan):
        isolated = _tapioca_estimate(machine, plan, aggregation)
    else:
        isolated = _mpiio_estimate(machine, plan, aggregation)
    senders = isolated.details.get("senders_by_aggregator", {})
    network, capacities = network_demand_weights(machine, senders) if senders else ({}, {})
    return SimpleNamespace(
        name=spec.name,
        nodes=tuple(int(node) for node in nodes),
        mapping=mapping,
        isolated=isolated,
        isolated_rate=isolated.bandwidth,
        storage_weights=storage_demand_weights(machine, plan.context.filesystem, list(nodes)),
        network_weights=network,
        network_capacities=capacities,
    )


def _aggregate(machine, plan) -> SimpleNamespace:
    """The job's election, sender groups and flow analysis."""
    partitions = plan.partitions
    sets = CandidateSets.by_node(partitions, plan.context.mapping.nodes(partitions.ranks))
    if plan.strategy is not None:
        iface = TopologyInterface(machine, plan.context.mapping)
        chosen, _ = elect_partitions(sets, iface, [(plan.strategy, plan.seed, 0, len(partitions))])
        aggregators = sets.nodes[chosen].tolist()
    else:
        aggregators = plan.context.mapping.nodes(plan.aggregator_ranks).tolist()
    senders: dict[int, set[int]] = {}
    for index, aggregator in enumerate(aggregators):
        lo, hi = sets.offsets[index], sets.offsets[index + 1]
        senders.setdefault(aggregator, set()).update(sets.nodes[lo:hi].tolist())
    pattern = {node: sorted(group) for node, group in senders.items()}
    position = {node: group for group, node in enumerate(pattern)}
    totals = sets.totals(sets.volumes)
    return SimpleNamespace(
        totals=totals,
        aggregators=aggregators,
        groups=np.array([position[node] for node in aggregators]),
        pattern=pattern,
        flows=analyze_flows(machine.topology, pattern),
        largest_active=int(partitions.sizes[totals > 0].max(initial=0)),
    )


def _fills(machine, plan, aggregation, groups, round_bytes) -> np.ndarray:
    """The fill time of every ``(aggregator group, bytes per round)`` fill."""
    flows = aggregation.flows
    nodes = list(aggregation.pattern)
    return fill_times(
        machine,
        [flows.aggregator_contention[nodes[g]] for g in groups],
        [flows.aggregator_min_bandwidth[nodes[g]] for g in groups],
        [flows.aggregator_distance[nodes[g]] for g in groups],
        [len(aggregation.pattern[nodes[g]]) for g in groups],
        round_bytes,
        plan.context.ranks_per_node,
    )


def _estimate(plan, **fields) -> IOEstimate:
    context = plan.context
    return IOEstimate(
        method=plan.label,
        machine=plan.machine.name,
        workload=context.workload.name,
        access=plan.access,
        **fields,
    )


def _tapioca_estimate(machine, plan, aggregation) -> IOEstimate:
    context, config = plan.context, plan.config
    totals = aggregation.totals
    active = np.flatnonzero(totals > 0)
    num_partitions = totals.size
    if active.size == 0:
        return _estimate(
            plan, total_bytes=0.0, phases=PhaseBreakdown(), num_aggregators=num_partitions,
            num_rounds=0,
        )
    rounds = np.maximum(1, np.ceil(totals[active] / config.buffer_size)).astype(np.int64)
    fills = _fills(machine, plan, aggregation, aggregation.groups[active], totals[active] / rounds)
    buffer_size = config.buffer_size
    unit = context.filesystem.alignment_unit()
    rounds = int(rounds.max())
    election = collective_time(machine, aggregation.largest_active)
    total_bytes = float(context.workload.total_bytes())
    mean_round_bytes = min(buffer_size, total_bytes / num_partitions / rounds)
    aligned = is_aligned(buffer_size, unit)
    profile = IOPhaseProfile(
        total_bytes=mean_round_bytes * num_partitions,
        streams=num_partitions,
        request_size=max(1.0, mean_round_bytes),
        access=plan.access,
        aligned=aligned,
        shared_locks=config.shared_locks,
        distinct_files=1,
    )
    t_io = context.filesystem.phase_time(profile)
    t_fill = float(fills.max())
    phases = PhaseBreakdown()
    phases.overhead = election + collective_time(machine, context.num_ranks)
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
    details = {
        "contention": aggregation.flows.mean_contention(),
        "placement": plan.strategy,
        "fill_time": t_fill,
        "io_time_per_round": t_io,
        "rounds": rounds,
        "aligned": aligned,
        "aggregator_nodes": list(aggregation.aggregators),
        "senders_by_aggregator": {node: tuple(s) for node, s in aggregation.pattern.items()},
    }
    return _estimate(
        plan, total_bytes=total_bytes, phases=phases, num_aggregators=num_partitions,
        num_rounds=rounds, details=details,
    )


def _mpiio_estimate(machine, plan, aggregation) -> IOEstimate:
    context, hints, access = plan.context, plan.hints, plan.access
    estimate = _estimate(
        plan, total_bytes=float(context.workload.total_bytes()), phases=PhaseBreakdown(),
        num_aggregators=0, num_rounds=0, details={"per_call": []},
    )
    workload, unit = context.workload, context.filesystem.alignment_unit()
    if aggregation is None:
        for per_rank in workload.segment_sizes_per_call():
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
            estimate.phases.io += context.filesystem.phase_time(profile)
        return estimate
    phases, num_aggregators = estimate.phases, plan.num_aggregators
    count = len(aggregation.pattern)
    rounds_seen = []
    for call_index, per_rank_bytes in enumerate(workload.segment_sizes_per_call()):
        if per_rank_bytes == 0:
            continue
        domain_bytes = float(per_rank_bytes) * context.num_ranks / num_aggregators
        rounds = max(1, math.ceil(domain_bytes / hints.cb_buffer_size))
        round_bytes = domain_bytes / rounds
        if isinstance(context.filesystem, GPFSModel):
            aligned = round_bytes >= unit
        else:
            aligned = is_aligned(int(round_bytes), unit) and is_aligned(int(domain_bytes), unit)
        t_fill = float(_fills(machine, plan, aggregation, range(count), round_bytes).max())
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
        phases.overhead += collective_time(machine, context.num_ranks)
        rounds_seen.append(rounds)
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
    estimate.details["aggregator_nodes"] = list(aggregation.aggregators)
    estimate.details["senders_by_aggregator"] = {
        node: tuple(s) for node, s in aggregation.pattern.items()
    }
    estimate.num_aggregators = num_aggregators
    estimate.num_rounds = max(rounds_seen, default=0)
    return estimate


def ledger(machine, specs, jobs) -> SimpleNamespace:
    """The runtime's ledger over oracle-bound ``jobs``, cell by cell: the
    machine's storage, each job's links in first-traversal order, then the
    override resources a job names first."""
    access = "read" if all(spec.workload.access == "read" for spec in specs) else "write"
    resources = [(r.key, r.capacity) for r in machine.storage_resources(access)]
    registered = {key for key, _ in resources}
    for spec, job in zip(specs, jobs):
        resources += job.network_capacities.items()
        registered.update(job.network_capacities)
        if spec.filesystem is not None:
            for resource in spec.filesystem.shared_resources(access):
                if resource.key in job.storage_weights and resource.key not in registered:
                    resources.append((resource.key, resource.capacity))
                    registered.add(resource.key)
    capacity: dict[tuple, float] = {}
    for key, value in resources:
        existing = capacity.get(key)
        assert existing is None or abs(existing - value) <= _EPS * existing
        capacity[key] = float(value)
    keys = tuple(capacity)
    column = {key: j for j, key in enumerate(keys)}
    weight = np.zeros((len(jobs), len(keys)))
    demand = np.zeros(len(jobs))
    for row, job in enumerate(jobs):
        demand[row] = job.isolated_rate
        for key, value in {**job.storage_weights, **job.network_weights}.items():
            if value > 0:
                weight[row, column[key]] = value
    capacities = np.array(list(capacity.values()), dtype=float)
    margin = _EPS * (1 + weight.sum(axis=0)) + (len(jobs) + 2) ** 2 * 2.0**-52
    return SimpleNamespace(
        keys=keys,
        capacity=capacities,
        demand=demand,
        weight=weight,
        bindable=demand @ weight > capacities * (1.0 - margin),
    )


def plain(value):
    """``value`` as nested lists and tagged scalars: floats as hex, so two
    values compare equal only bit for bit and type for type."""
    if isinstance(value, dict):
        return [("dict", plain(key), plain(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *(plain(item) for item in value)]
    if isinstance(value, np.ndarray):
        return ["ndarray", str(value.dtype), plain(value.tolist())]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def job_fields(job) -> dict:
    """Every field of a bound job (and its isolated rate), as :func:`plain`
    values."""
    isolated, phases = job.isolated, job.isolated.phases
    return {
        "nodes": plain(job.nodes),
        "mapping": plain(
            (job.mapping.node_of_rank, job.mapping.num_nodes, job.mapping.ranks_per_node)
        ),
        "isolated": plain(
            (
                isolated.method, isolated.machine, isolated.workload, isolated.access,
                isolated.total_bytes, phases.aggregation, phases.io, phases.overhead,
                phases.overlapped, isolated.num_aggregators, isolated.num_rounds,
                isolated.details,
            )
        ),
        "isolated_rate": plain(job.isolated_rate),
        "storage_weights": plain(job.storage_weights),
        "network_weights": plain(job.network_weights),
        "network_capacities": plain(job.network_capacities),
    }


def ledger_fields(found) -> dict:
    """A ledger's keys, capacities, demands, weights and bindable columns,
    as :func:`plain` values."""
    return {
        name: plain(getattr(found, name))
        for name in ("keys", "capacity", "demand", "weight", "bindable")
    }


def mismatches(runtime) -> list[str]:
    """What differs between a runtime's binding and the oracle's, each job
    bound alone on the nodes the runtime gave it: ``job:field`` or
    ``ledger:field`` entries (empty when everything is equal)."""
    machine = runtime.machine
    specs = [job.spec for job in runtime.jobs]
    alone = [bind_job(machine, job.spec, job.nodes) for job in runtime.jobs]
    found = []
    for job, oracle in zip(runtime.jobs, alone):
        mine, theirs = job_fields(job), job_fields(oracle)
        found += [f"{job.name}:{name}" for name in mine if mine[name] != theirs[name]]
    mine, theirs = ledger_fields(runtime.ledger), ledger_fields(ledger(machine, specs, alone))
    found += [f"ledger:{name}" for name in mine if mine[name] != theirs[name]]
    return found
