"""One binding pass for the analytic models of many jobs at once.

TAPIOCA elects every partition's aggregator at the same moment, with one
``MPI_Allreduce(MINLOC)`` over ``C1 + C2``.  :func:`estimate_plans` binds
any number of jobs (one :class:`ModelPlan` each) the same way, as one
columnar pass over the job list: one partition table stacking every job's
partitions (each distinct partition shape built once), one election
(:func:`~repro.core.placement.elect_partitions`), the sender groups of
every aggregator from one ``np.unique`` of ``(job, aggregator node)`` keys,
one routing of every flow (:func:`~repro.perfmodel.flows.analyze_jobs`),
one fill-time pass, and each method's phase terms as arrays over its jobs
(``fill_rounds`` and ``finish`` of :class:`~repro.perfmodel.tapioca.TapiocaPlan`
and :class:`~repro.perfmodel.mpiio.MPIIOPlan`).  The result,
:class:`Estimates`, holds those terms as columns and builds a job's
:class:`IOEstimate` (with its ``details``) only when it is read.  A
single-job estimate is the one-plan call.

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
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.cost_model import CandidateSets
from repro.core.partitioning import Partitions, offsets_of
from repro.core.placement import elect_partitions
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.perfmodel.aggregation import fill_times
from repro.perfmodel.common import build_context, record_phases
from repro.perfmodel.flows import FlowAnalysis, LinkLoads, analyze_jobs
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
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


class Fills(NamedTuple):
    """Every buffer fill one method's estimates need: the plan (its position
    in the method's list) and aggregator group (its position in the plan's
    ``senders``) of each fill, its bytes per round, and the state the
    method's ``finish`` reads back."""

    plan: np.ndarray
    group: np.ndarray
    round_bytes: np.ndarray
    state: tuple


class Terms(NamedTuple):
    """One method's estimate terms over its plans, one entry per plan:
    bytes moved, the four phase terms, aggregator and round counts, which
    estimates record their phases on the recorder, and ``details(i)``,
    which builds plan ``i``'s ``details`` dictionary."""

    total_bytes: np.ndarray
    aggregation: np.ndarray
    io: np.ndarray
    overhead: np.ndarray
    overlapped: np.ndarray
    num_aggregators: Sequence[int]
    num_rounds: Sequence[int]
    recorded: Sequence[bool]
    details: Callable[[int], dict]


class ModelPlan:
    """One job's analytic model, split around the shared passes.

    ``partitions`` is ``None`` when no byte goes through an aggregator
    (``aggregates`` is false); ``strategy`` is ``None`` when
    ``aggregator_ranks`` fixes each partition's aggregator instead of an
    election.  Subclasses build both on first use, so a memoised
    aggregation never builds them, and set ``aggregation_inputs`` when those
    fix the aggregation (see :meth:`memo_key`).  A plan whose partitions
    are contiguous rank blocks sets ``shape`` to its rank and block counts
    and returns its per-rank bytes from ``rank_volumes()``: a batch builds
    one table per shape and gives each plan its own volumes.  A subclass
    implements two class methods over a list of its plans and their
    aggregations (``None`` without partitions): ``fill_rounds(plans,
    aggregations)``, the :class:`Fills` their estimates need, and
    ``finish(plans, aggregations, state, fills)``, their :class:`Terms`
    given those fills' times.

    ``label`` is the method name the estimate records and ``access``
    overrides the workload's direction; the other keywords go to
    :func:`~repro.perfmodel.common.build_context`.  ``filesystem``,
    ``stripe`` and ``hints`` say where the job's file lives:
    :func:`~repro.perfmodel.common.resolve_filesystem` decides it once, and
    everything else reads ``context.filesystem``.
    """

    partitions: Partitions | None = None
    aggregates: bool = True
    shape: tuple | None = None
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
        hints=None,
        ranks_per_node: int | None = None,
        mapping=None,
        shared_locks: bool = True,
    ) -> None:
        self.machine, self.access, self.label = machine, access or workload.access, label
        self.context = build_context(
            machine,
            workload,
            ranks_per_node=ranks_per_node,
            mapping=mapping,
            filesystem=filesystem,
            stripe=stripe,
            hints=hints,
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


class Estimates(Sequence[IOEstimate]):
    """The estimates of a batch of plans, as columns over the plans.

    ``estimates[i]`` builds plan ``i``'s :class:`IOEstimate` (a new one,
    with its own ``details``) on each read; :attr:`bandwidth` is every
    plan's :attr:`IOEstimate.bandwidth` at once and :attr:`loads` every
    plan's link loads (``None`` without partitions or ``loads``).  The
    estimates that record their phases do so here, in plan order.
    """

    def __init__(
        self,
        plans: Sequence[ModelPlan],
        blocks: Sequence[tuple[np.ndarray, Terms]],
        loads: list[LinkLoads | None],
    ) -> None:
        self._plans, self._blocks, self.loads = plans, blocks, loads
        self._rows: list[tuple[Terms, int]] = [None] * len(plans)  # type: ignore[list-item]
        for rows, terms in blocks:
            for local, row in enumerate(rows.tolist()):
                self._rows[row] = (terms, local)
        record_phases(
            self._phases(terms, local) for terms, local in self._rows if terms.recorded[local]
        )

    @staticmethod
    def _phases(terms: Terms, local: int) -> tuple[float, float, float, float]:
        return (
            float(terms.aggregation[local]),
            float(terms.io[local]),
            float(terms.overhead[local]),
            float(terms.overlapped[local]),
        )

    @cached_property
    def bandwidth(self) -> np.ndarray:
        """Bytes moved over exposed time (``aggregation + io + overhead``),
        ``inf`` without exposed time, of every plan."""
        bandwidth = np.empty(len(self._plans))
        for rows, terms in self._blocks:
            elapsed = terms.aggregation + terms.io + terms.overhead
            with np.errstate(divide="ignore", invalid="ignore"):
                bandwidth[rows] = np.where(elapsed > 0, terms.total_bytes / elapsed, np.inf)
        return bandwidth

    def __len__(self) -> int:
        return len(self._plans)

    def __getitem__(self, index: int) -> IOEstimate:  # type: ignore[override]
        plan = self._plans[index]
        terms, local = self._rows[index]
        return IOEstimate(
            method=plan.label,
            machine=plan.machine.name,
            workload=plan.context.workload.name,
            access=plan.access,
            total_bytes=float(terms.total_bytes[local]),
            phases=PhaseBreakdown(*self._phases(terms, local)),
            num_aggregators=int(terms.num_aggregators[local]),
            num_rounds=int(terms.num_rounds[local]),
            details=terms.details(local),
        )


def estimate_plans(
    machine: Machine, plans: Sequence[ModelPlan], *, loads: bool = False
) -> Estimates:
    """Every plan's estimate (and, with ``loads``, link loads), from one
    pass of each shared stage."""
    bound = _aggregate(machine, plans, loads)
    aggregations = [aggregation for aggregation, _ in bound]
    kinds: dict[type, list[int]] = {}
    for row, plan in enumerate(plans):
        kinds.setdefault(type(plan), []).append(row)
    requests = []
    for kind, rows in kinds.items():
        members = [plans[row] for row in rows]
        found = [aggregations[row] for row in rows]
        requests.append((np.asarray(rows), kind, members, found, kind.fill_rounds(members, found)))
    # Each fill reads its aggregator's (contention, bandwidth, distance,
    # senders) row of one table stacking every job's aggregators in order.
    sizes = [len(a.senders) if a else 0 for a in aggregations]
    first = np.asarray(list(accumulate(sizes, initial=0)), dtype=np.int64)
    table = chain.from_iterable(
        zip(a.flows.aggregator_contention.values(), a.flows.aggregator_min_bandwidth.values(),
            a.flows.aggregator_distance.values(), (len(senders) for _, senders in a.senders))
        for a in aggregations if a
    )
    owner = np.concatenate([rows[fills.plan] for rows, *_, fills in requests])
    group = np.concatenate([fills.group for *_, fills in requests])
    ranks_per_node = np.array([plan.context.ranks_per_node for plan in plans], dtype=np.int64)
    times = fill_times(
        machine,
        *np.fromiter(table, np.dtype((np.float64, 4)), int(first[-1]))[first[owner] + group].T,
        np.concatenate([fills.round_bytes for *_, fills in requests]),
        ranks_per_node[owner],
    )
    bounds = list(accumulate((fills.plan.size for *_, fills in requests), initial=0))
    return Estimates(
        plans,
        [
            (rows, kind.finish(members, found, fills.state, times[lo:hi]))
            for (rows, kind, members, found, fills), lo, hi in zip(requests, bounds, bounds[1:])
        ],
        [link_loads for _, link_loads in bound],
    )


def _aggregate(
    machine: Machine, plans: Sequence[ModelPlan], loads: bool
) -> list[tuple[Aggregation | None, LinkLoads | None]]:
    """Every plan's aggregation (``None`` without partitions), from the memo
    or one pass over the others, and its link loads with ``loads``."""
    memo = None if loads else _MEMO.get()
    keys = [plan.memo_key() for plan in plans] if memo is not None else [None] * len(plans)
    found = [memo.get(key) if key is not None else None for key in keys]
    misses = [p for p, hit in zip(plans, found) if hit is None and p.aggregates]
    fresh = iter(_bind(machine, misses, loads))
    bound = []
    for plan, key, hit in zip(plans, keys, found):
        link_loads = None
        if hit is None and plan.aggregates:
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
    """The election and flow table of plans with partitions, as one pass
    over the stacked partition table of them all."""
    if not plans:
        return []
    stacked, tables = _partition_table(plans)
    count = len(plans)
    counts = np.fromiter(map(len, tables), dtype=np.int64, count=count)
    bounds = offsets_of(counts).tolist()
    jobs = list(zip(plans, bounds, bounds[1:]))
    job_of = np.repeat(np.arange(count), counts)
    sets = CandidateSets.by_node(stacked, _rank_nodes(plans, tables, stacked))
    aggregator = np.empty(bounds[-1], dtype=np.int64)
    elected = [(p.strategy, p.seed, lo, hi) for p, lo, hi in jobs if p.strategy is not None]
    if elected:
        iface = TopologyInterface(machine, plans[0].context.mapping)
        chosen, _ = elect_partitions(sets, iface, elected)
        aggregator[chosen >= 0] = sets.nodes[chosen[chosen >= 0]]
    for plan, lo, hi in jobs:
        if plan.strategy is None:
            aggregator[lo:hi] = plan.context.mapping.nodes(plan.aggregator_ranks)
    # Each job's aggregator nodes, in order of their first partition, are
    # its groups; a group's senders are the union of its partitions'
    # candidate nodes, ascending: one sort of (group, node) keys.  (A plain
    # ``np.unique`` would import ``numpy.ma`` on first use.)
    span = int(max(aggregator.max(), sets.nodes.max())) + 1
    _, first, inverse = np.unique(job_of * span + aggregator, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = rank[inverse.ravel()]
    group_bounds = offsets_of(np.bincount(job_of[first[order]], minlength=count))
    local = _frozen(group - group_bounds[job_of])
    pairs = np.sort(group[sets.segments] * span + sets.nodes)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    senders_of, sender_nodes = np.divmod(pairs, span)
    sender_bounds = offsets_of(np.bincount(senders_of, minlength=order.size)).tolist()
    sender_nodes = sender_nodes.tolist()
    senders = [sender_nodes[lo:hi] for lo, hi in zip(sender_bounds, sender_bounds[1:])]
    group_nodes = aggregator[first[order]].tolist()
    group_bounds = group_bounds.tolist()
    patterns = [
        dict(zip(group_nodes[lo:hi], senders[lo:hi]))
        for lo, hi in zip(group_bounds, group_bounds[1:])
    ]
    analyses, link_loads = analyze_jobs(machine.topology, patterns, loads=loads)
    totals = _frozen(sets.totals(sets.volumes))
    moving = totals > 0
    largest = np.zeros(count, dtype=np.int64)
    np.maximum.at(largest, job_of[moving], stacked.sizes[moving])
    aggregator = aggregator.tolist()
    return [
        (
            Aggregation(
                totals[lo:hi], tuple(aggregator[lo:hi]), local[lo:hi], flows.pattern, flows, top
            ),
            link_loads[i] if loads else None,
        )
        for i, ((_, lo, hi), flows, top) in enumerate(zip(jobs, analyses, largest.tolist()))
    ]


def _partition_table(plans: Sequence[ModelPlan]) -> tuple[Partitions, list[Partitions]]:
    """Every plan's partitions as one stacked table, and each plan's own
    table: plans with a ``shape`` share one build per distinct shape, with
    their own volumes put back in the stack."""
    built: dict[tuple, Partitions] = {}
    tables = []
    for plan in plans:
        shape = plan.shape
        table = built.get(shape) if shape is not None else None
        if table is None:
            table = plan.partitions
            if shape is not None:
                built[shape] = table
        tables.append(table)
    if len(plans) == 1:
        return tables[0], tables
    volumes = [
        table.volumes if plan.shape is None else plan.rank_volumes()
        for plan, table in zip(plans, tables)
    ]
    return Partitions.stack(tables, np.concatenate(volumes)), tables


def _rank_nodes(
    plans: Sequence[ModelPlan], tables: Sequence[Partitions], stacked: Partitions
) -> np.ndarray:
    """The node of every entry of the stacked table's ranks, from one gather
    over every plan's mapping (a rank outside its plan's mapping raises the
    :meth:`~repro.topology.mapping.RankMapping.nodes` error)."""
    mappings = [plan.context.mapping for plan in plans]
    if len(plans) == 1:
        return mappings[0].nodes(stacked.ranks)
    sizes = np.fromiter((m.num_ranks for m in mappings), dtype=np.int64, count=len(mappings))
    job = np.repeat(np.arange(len(plans)), [table.ranks.size for table in tables])
    ranks = stacked.ranks
    outside = (ranks < 0) | (ranks >= sizes[job])
    if outside.any():
        first = int(np.flatnonzero(outside)[0])
        mappings[job[first]].nodes(ranks[first : first + 1])
    nodes = np.concatenate([mapping.node_of_rank for mapping in mappings])
    return nodes[offsets_of(sizes)[job] + ranks]


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array
