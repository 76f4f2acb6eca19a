"""One binding pass for the analytic models of many jobs at once.

TAPIOCA elects every partition's aggregator at the same moment, with one
``MPI_Allreduce(MINLOC)`` over ``C1 + C2``.  :func:`estimate_plans` binds
any number of jobs (one :class:`ModelPlan` each) the same way: one election
(:func:`~repro.core.placement.elect_partitions`), one routing of every flow
(:func:`~repro.perfmodel.flows.analyze_jobs`) and one fill-time pass.  A
single-job estimate is its one-plan call.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.cost_model import CandidateSets
from repro.core.partitioning import Partitions
from repro.core.placement import elect_partitions
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.perfmodel.aggregation import fill_times
from repro.perfmodel.common import build_context
from repro.perfmodel.flows import FlowAnalysis, LinkLoads, analyze_jobs
from repro.perfmodel.results import IOEstimate
from repro.storage.lustre import LustreModel
from repro.workloads.base import Workload


class Aggregation(NamedTuple):
    """What the shared passes found for one job: each partition's bytes,
    aggregator node and its position in ``senders_by_aggregator`` (each
    aggregator's sorted senders, in order of its first partition), and the
    flow analysis, whose dictionaries list the aggregators in that order."""

    totals: np.ndarray
    aggregator_nodes: list[int]
    groups: np.ndarray
    senders_by_aggregator: dict[int, list[int]]
    flows: FlowAnalysis


class ModelPlan:
    """One job's analytic model, split around the shared passes.

    ``partitions`` is ``None`` when no byte goes through an aggregator;
    ``strategy`` is ``None`` when ``aggregator_ranks`` fixes each
    partition's aggregator instead of an election.  A subclass implements
    ``fill_rounds(aggregation)``: the aggregator (its position in
    ``senders_by_aggregator``) and bytes per round of every buffer fill its
    estimate needs, called once; and then
    ``finish(aggregation, fills)``: the estimate, given those fill times
    (``aggregation`` is ``None`` without partitions).

    ``label`` is the method name the estimate records and ``access``
    overrides the workload's direction; the other keywords go to
    :func:`~repro.perfmodel.common.build_context`, the ``stripe`` only
    when the file system (``filesystem`` or the machine's) is Lustre.
    """

    partitions: Partitions | None = None
    strategy: str | None = None
    seed: int | None = None
    aggregator_ranks: Sequence[int] | None = None

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        *,
        label: str,
        access: str | None = None,
        filesystem=None,
        stripe=None,
        ranks_per_node: int | None = None,
        mapping=None,
        shared_locks: bool = True,
    ) -> None:
        self.machine, self.access, self.label = machine, access or workload.access, label
        filesystem = filesystem if filesystem is not None else machine.filesystem()
        self.context = build_context(
            machine,
            workload,
            ranks_per_node=ranks_per_node,
            mapping=mapping,
            filesystem=filesystem,
            stripe=stripe if isinstance(filesystem, LustreModel) else None,
            shared_locks=shared_locks,
        )

    def estimate(self, **fields) -> IOEstimate:
        """An :class:`IOEstimate` of this job's method, machine and workload."""
        return IOEstimate(
            method=self.label,
            machine=self.machine.name,
            workload=self.context.workload.name,
            access=self.access,
            **fields,
        )


def estimate_plans(
    machine: Machine, plans: Sequence[ModelPlan], *, loads: bool = False
) -> list[tuple[IOEstimate, LinkLoads | None]]:
    """``(estimate, link loads)`` of every plan, from one pass of each shared
    stage; the loads are ``None`` without partitions or ``loads``."""
    found = iter(_aggregate(machine, [p for p in plans if p.partitions is not None], loads))
    bound = [next(found) if p.partitions is not None else (None, None) for p in plans]
    requests = [
        plan.fill_rounds(aggregation) if aggregation else ([], [])
        for plan, (aggregation, _) in zip(plans, bound)
    ]
    # Each fill reads its aggregator's (contention, bandwidth, distance,
    # senders) row of one table stacking every job's aggregators in order.
    sizes = [len(a.senders_by_aggregator) if a else 0 for a, _ in bound]
    first = list(accumulate(sizes, initial=0))
    rows = np.concatenate(
        [np.asarray(groups, dtype=np.int64) + base for (groups, _), base in zip(requests, first)]
    )
    table = chain.from_iterable(
        zip(a.flows.aggregator_contention.values(), a.flows.aggregator_min_bandwidth.values(),
            a.flows.aggregator_distance.values(), map(len, a.senders_by_aggregator.values()))
        for a, _ in bound if a
    )
    times = fill_times(
        machine,
        *np.fromiter(table, np.dtype((np.float64, 4)), first[-1])[rows].T,
        np.concatenate([np.asarray(rounds, dtype=np.float64) for _, rounds in requests]),
        np.repeat([plan.context.ranks_per_node for plan in plans], [len(g) for g, _ in requests]),
    )
    bounds = list(accumulate((len(groups) for groups, _ in requests), initial=0))
    return [
        (plan.finish(aggregation, times[lo:hi]), link_loads)
        for plan, (aggregation, link_loads), lo, hi in zip(plans, bound, bounds, bounds[1:])
    ]


def _aggregate(
    machine: Machine, plans: list[ModelPlan], loads: bool
) -> list[tuple[Aggregation, LinkLoads | None]]:
    """The election and flow table of plans with partitions."""
    if not plans:
        return []
    sets = CandidateSets.by_node(
        [plan.partitions for plan in plans],
        [plan.context.mapping.nodes(plan.partitions.ranks) for plan in plans],
    )
    bounds = list(accumulate((len(plan.partitions) for plan in plans), initial=0))
    jobs = list(zip(plans, bounds, bounds[1:]))
    aggregator = np.empty(bounds[-1], dtype=np.int64)
    elected = [(p.strategy, p.seed, lo, hi) for p, lo, hi in jobs if p.strategy is not None]
    if elected:
        iface = TopologyInterface(machine, plans[0].context.mapping)
        chosen, _ = elect_partitions(sets, iface, elected)
        aggregator[chosen >= 0] = sets.nodes[chosen[chosen >= 0]]
    for plan, lo, hi in jobs:
        if plan.strategy is None:
            aggregator[lo:hi] = plan.context.mapping.nodes(plan.aggregator_ranks)
    # Each aggregator node's senders: the union of its partitions' candidate
    # nodes, in order of its first partition.
    aggregator, nodes, offsets = aggregator.tolist(), sets.nodes.tolist(), sets.offsets.tolist()
    patterns, groups = [], []
    for _, lo, hi in jobs:
        senders: dict[int, set[int]] = {}
        for index in range(lo, hi):
            senders.setdefault(aggregator[index], set()).update(
                nodes[offsets[index] : offsets[index + 1]]
            )
        position = {node: group for group, node in enumerate(senders)}
        groups.append(np.array([position[node] for node in aggregator[lo:hi]], dtype=np.int64))
        patterns.append({node: sorted(group) for node, group in senders.items()})
    analyses, link_loads = analyze_jobs(machine.topology, patterns, loads=loads)
    totals = sets.totals(sets.volumes)
    return [
        (Aggregation(totals[lo:hi], aggregator[lo:hi], *found), link_loads[i] if loads else None)
        for i, ((_, lo, hi), *found) in enumerate(zip(jobs, groups, patterns, analyses))
    ]
