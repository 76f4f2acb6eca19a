"""One binding pass for the analytic models of many jobs at once.

TAPIOCA elects every partition's aggregator at the same moment, with one
``MPI_Allreduce(MINLOC)`` over ``C1 + C2``.  :func:`estimate_plans` binds
any number of jobs (one :class:`ModelPlan` each) the same way: one election
(:func:`~repro.core.placement.elect_partitions`), one routing of every flow
(:func:`~repro.perfmodel.flows.analyze_jobs`) and one fill-time pass.  A
single-job estimate is its one-plan call.

The election and the flows depend on the machine, the rank mapping, the
partition volumes and the strategy, and not on the buffer size, striping,
lock sharing or direction that the sweeps and the tuner vary.  So inside
:func:`memoised_aggregations`, which every evaluation runs in (one
experiment, a run of experiments, one scenario, one batch of tuning
candidates), each plan's :class:`Aggregation` is memoised, keyed by
:meth:`ModelPlan.memo_key`: the machine, the method, the rank count and
ranks per node (which fix the default block mapping) and the method's own
aggregation inputs, never array contents.  TAPIOCA's inputs are the
strategy, seed, aggregator count, ``partition_by`` and the workload's
uniform bytes per rank; MPI I/O's the default-aggregator policy and
aggregator count (its partitions carry no volume).  A hit skips building
the partitions and default aggregators, the election and the routing, and
returns the same record bit for bit.  A plan on an explicit mapping, or of
a workload whose ranks move different amounts, has no key and is never
memoised.  Multi-job binding (``loads=True``) neither reads nor fills the
memo: its allocation mappings never repeat, and its link loads are not part
of the record.  The memo holds at most :data:`MAX_AGGREGATIONS` records
(cleared wholesale when full) and is dropped when the evaluation ends, so
what one evaluation computes never depends on the ones before it; the flow
memo of :mod:`repro.perfmodel.flows` is what lives on across evaluations.
Estimates share a record, so its arrays are read-only, its sender groups
tuples, and every estimate builds its own list and dictionary for
``details``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.cost_model import CandidateSets
from repro.core.partitioning import Partitions
from repro.core.placement import elect_partitions
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.perfmodel.aggregation import fill_times
from repro.perfmodel.common import build_context
from repro.perfmodel.flows import FlowAnalysis, LinkLoads, analyze_jobs
from repro.perfmodel.results import IOEstimate
from repro.storage.lustre import LustreModel
from repro.workloads.base import Workload

#: Cap on the aggregations one evaluation memoises (cleared wholesale).
MAX_AGGREGATIONS = 256

#: The memo of the evaluation this context runs (``None`` outside one).
_MEMO: ContextVar[dict | None] = ContextVar("aggregation_memo", default=None)


@contextmanager
def memoised_aggregations() -> Iterator[None]:
    """Memoise the aggregations of every estimate made inside the block and
    drop them at its end; a nested block shares the outer block's memo.
    Usable as a decorator of an evaluation entry point."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


class Aggregation(NamedTuple):
    """What the shared passes found for one job: each partition's bytes,
    aggregator node and that node's position in ``senders`` (each aggregator
    node and its sorted sender nodes, in order of its first partition), the
    flow analysis, whose dictionaries list the aggregators in that order, and
    the rank count of the largest partition that moves bytes.  Records are
    memoised and shared: the arrays are read-only, the sequences tuples, and
    ``senders`` is the flow memo's own tuple of pairs."""

    totals: np.ndarray
    aggregator_nodes: tuple[int, ...]
    groups: np.ndarray
    senders: tuple[tuple[int, tuple[int, ...]], ...]
    flows: FlowAnalysis
    largest_active: int


class ModelPlan:
    """One job's analytic model, split around the shared passes.

    ``partitions`` is ``None`` when no byte goes through an aggregator;
    ``strategy`` is ``None`` when ``aggregator_ranks`` fixes each
    partition's aggregator instead of an election.  Subclasses build both
    on first use, so a memoised aggregation never builds them, and set
    ``aggregation_inputs`` when those fix the aggregation (see
    :meth:`memo_key`).  A subclass implements
    ``fill_rounds(aggregation)``: the aggregator (its position in
    ``senders``) and bytes per round of every buffer fill its
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
    aggregation_inputs: tuple | None = None

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
        self._explicit_mapping = mapping is not None

    def memo_key(self) -> tuple | None:
        """This plan's key in the aggregation memo: the machine, the method,
        the rank count and ranks per node of the default block mapping, and
        ``aggregation_inputs``; ``None`` (never memoised) on an explicit
        mapping or without inputs."""
        if self._explicit_mapping or self.aggregation_inputs is None:
            return None
        context = self.context
        mapping = (context.num_ranks, context.ranks_per_node)
        return (self.machine, type(self), *mapping, *self.aggregation_inputs)

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
    bound = _aggregate(machine, plans, loads)
    requests = [
        plan.fill_rounds(aggregation) if aggregation else ([], [])
        for plan, (aggregation, _) in zip(plans, bound)
    ]
    # Each fill reads its aggregator's (contention, bandwidth, distance,
    # senders) row of one table stacking every job's aggregators in order.
    sizes = [len(a.senders) if a else 0 for a, _ in bound]
    first = list(accumulate(sizes, initial=0))
    rows = np.concatenate(
        [np.asarray(groups, dtype=np.int64) + base for (groups, _), base in zip(requests, first)]
    )
    table = chain.from_iterable(
        zip(a.flows.aggregator_contention.values(), a.flows.aggregator_min_bandwidth.values(),
            a.flows.aggregator_distance.values(), (len(senders) for _, senders in a.senders))
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
    machine: Machine, plans: Sequence[ModelPlan], loads: bool
) -> list[tuple[Aggregation | None, LinkLoads | None]]:
    """Every plan's aggregation (``None`` without partitions), from the memo
    or one pass over the others, and its link loads with ``loads``."""
    memo = None if loads else _MEMO.get()
    keys = [plan.memo_key() for plan in plans] if memo is not None else [None] * len(plans)
    found = [memo.get(key) if key is not None else None for key in keys]
    misses = [p for p, hit in zip(plans, found) if hit is None and p.partitions is not None]
    fresh = iter(_bind(machine, misses, loads))
    bound = []
    for plan, key, hit in zip(plans, keys, found):
        link_loads = None
        if hit is None and plan.partitions is not None:
            hit, link_loads = next(fresh)
            if key is not None:
                if len(memo) >= MAX_AGGREGATIONS:
                    memo.clear()
                memo[key] = hit
        bound.append((hit, link_loads))
    rec = obs_recorder()
    if rec is not None and memo is not None:
        rec.inc("model.aggregations", sum(hit is not None for hit in found), memo="hit")
        rec.inc("model.aggregations", len(misses), memo="miss")
    return bound


def _bind(
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
        groups.append(
            _frozen(np.array([position[node] for node in aggregator[lo:hi]], dtype=np.int64))
        )
        patterns.append({node: sorted(group) for node, group in senders.items()})
    analyses, link_loads = analyze_jobs(machine.topology, patterns, loads=loads)
    totals = _frozen(sets.totals(sets.volumes))
    return [
        (
            Aggregation(
                totals[lo:hi],
                tuple(aggregator[lo:hi]),
                group,
                flows.pattern,
                flows,
                int(plan.partitions.sizes[totals[lo:hi] > 0].max(initial=0)),
            ),
            link_loads[i] if loads else None,
        )
        for i, ((plan, lo, hi), group, flows) in enumerate(zip(jobs, groups, analyses))
    ]


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array
