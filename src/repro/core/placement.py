"""Aggregator placement strategies.

The paper's strategy ("topology-aware") evaluates the C1+C2 objective for
every candidate of a partition and elects the minimum via
``MPI_Allreduce(MINLOC)``.  For the ablation study this module also provides
the simpler strategies the paper argues against:

* ``"rank-order"`` — the partition's first rank (ROMIO-like);
* ``"shortest-io"`` — the rank closest to the I/O node, ignoring where the
  data lives (a C2-only strategy);
* ``"max-volume"`` — the rank holding the most data, ignoring the topology
  (a pure data-locality strategy, cf. the Hungarian-assignment related work);
* ``"random"`` — a seeded random member.

All strategies are pure functions of (partitions, topology interface), so the
same placement is obtained by the analytic model and by the discrete-event
election (which still performs the actual allreduce for timing fidelity,
with the per-candidate costs of :attr:`PlacementResult.costs`).  Every cost
a strategy reports, and :func:`placement_cost`, comes from the one segmented
election kernel, :meth:`~repro.core.cost_model.AggregationCostModel.elect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.cost_model import AggregationCostModel, CandidateSets, CostBreakdown
from repro.core.partitioning import Partitions
from repro.core.topology_iface import TopologyInterface
from repro.obs import recorder as obs_recorder, span as obs_span
from repro.utils.rng import seeded_rng
from repro.utils.validation import require


@dataclass
class PlacementResult:
    """Outcome of aggregator placement over all partitions.

    Attributes:
        strategy: the strategy name used.
        aggregators: elected aggregator world rank per partition (by index).
        breakdowns: cost breakdowns per partition for the winning candidate
            (only populated by the topology-aware and shortest-io strategies).
        candidates: the candidate sets the strategy chose from (one per node
            at ``"node"`` granularity, one per rank at ``"rank"``).
        costs: ``(C1, C2)`` of every candidate, aligned with ``candidates``
            (topology-aware only).
    """

    strategy: str
    aggregators: list[int]
    breakdowns: dict[int, CostBreakdown] = field(default_factory=dict)
    candidates: CandidateSets | None = None
    costs: tuple[np.ndarray, np.ndarray] | None = None

    def aggregator_of(self, partition_index: int) -> int:
        """Elected aggregator of a partition."""
        return self.aggregators[partition_index]


def _shortest_io(sets: CandidateSets, iface: TopologyInterface) -> np.ndarray:
    """Each partition's candidate closest to its I/O node (unknown: 0 hops)."""
    known = iface.io_locality_known()
    return sets.argmin(iface.io_distances(sets.nodes) if known else np.zeros(sets.nodes.size))


def _random(sets: CandidateSets, seed: int | None) -> np.ndarray:
    """A seeded uniform member of each partition, drawn partition by partition."""
    rng = seeded_rng(seed)
    starts = sets.offsets[:-1].tolist()
    sizes = np.diff(sets.offsets).tolist()
    return np.array(
        [start + int(rng.integers(0, size)) for start, size in zip(starts, sizes)],
        dtype=np.int64,
    )


def elect_partitions(
    sets: CandidateSets,
    iface: TopologyInterface,
    jobs: Sequence[tuple[str, int | None, int, int]],
    *,
    each_chunk: Callable[..., None] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Each job's winners by its own strategy; ``jobs`` lists ``(strategy,
    seed, first, stop)`` over segments ``first:stop`` of ``sets``.

    The topology-aware jobs' partitions are elected by one
    :meth:`~repro.core.cost_model.AggregationCostModel.best_candidate` call,
    which stacks same-size partitions across jobs; a candidate's sum never
    depends on the stack and ``MINLOC`` ties go to the lowest rank of its
    own partition, so each winner and cost equals the job's alone.  The
    others pick from their own slice (``iface`` is read for the machine
    only).  Returns every segment's winner as a flat index into ``sets``
    (-1: no job) and the topology-aware candidates' ``(C1, C2)`` in
    ``sets`` order (``None`` without one).  ``each_chunk`` receives every
    costed chunk's ``(rows, columns, latency, transfer)``, its rows and
    columns indexing ``sets`` (see
    :meth:`~repro.core.cost_model.AggregationCostModel.elect`).
    """
    chosen = np.full(sets.offsets.size - 1, -1, dtype=np.int64)
    costs = None
    aware = [np.arange(lo, hi) for strategy, _, lo, hi in jobs if strategy == "topology-aware"]
    with obs_span("placement", cat="core", jobs=len(jobs)):
        if aware:
            segments = np.concatenate(aware)
            joint, index = sets.take(segments)

            def relay(rows, columns, latency, transfer):
                each_chunk(index[rows], index[columns], latency, transfer)

            winners, costs = AggregationCostModel(iface).best_candidate(
                joint, each_chunk=None if each_chunk is None else relay
            )
            chosen[segments] = index[winners]
        for strategy, seed, first, stop in jobs:
            if strategy == "topology-aware":
                continue
            job, index = sets.take(np.arange(first, stop))
            if strategy == "shortest-io":
                picks = _shortest_io(job, iface)
            elif strategy == "max-volume":
                picks = job.argmin(-job.volumes)
            elif strategy == "rank-order":
                picks = job.offsets[:-1]
            elif strategy == "random":
                picks = _random(job, seed)
            else:
                raise ValueError(f"unknown placement strategy {strategy!r}")
            chosen[first:stop] = index[picks]
    rec = obs_recorder()
    if rec is not None:
        for strategy, _, first, stop in jobs:
            rec.inc("placement.partitions", stop - first, strategy=strategy)
    return chosen, costs


def place_aggregators(
    partitions: Partitions,
    iface: TopologyInterface,
    *,
    strategy: str = "topology-aware",
    seed: int | None = None,
    granularity: str = "rank",
) -> PlacementResult:
    """Elect one aggregator per partition with the requested strategy.

    Args:
        partitions: the aggregation partitions.
        iface: topology abstraction for the machine and mapping.
        strategy: one of :data:`repro.core.config.PLACEMENT_STRATEGIES`.
        seed: RNG seed for the ``"random"`` strategy.
        granularity: ``"rank"`` evaluates every rank of a partition as a
            candidate (what the distributed election does); ``"node"``
            evaluates one candidate per node, which is equivalent under the
            cost model and is used by the large-scale analytic path.

    Every strategy picks from the same :class:`CandidateSets`, through the
    one-job call of :func:`elect_partitions`: the topology-aware strategy
    costs every candidate of every partition in one segmented election;
    shortest-io costs only its winners, for their breakdowns.
    """
    require(len(partitions) > 0, "no partitions to place aggregators for")
    sets = CandidateSets.of(partitions, iface, granularity)
    chosen, costs = elect_partitions(sets, iface, [(strategy, seed, 0, len(partitions))])
    result = PlacementResult(
        strategy=strategy,
        aggregators=sets.ranks[chosen].tolist(),
        candidates=sets,
        costs=costs,
    )
    winner_costs = None
    if costs is not None:
        winner_costs = (costs[0][chosen], costs[1][chosen])
    elif strategy == "shortest-io":
        winner_costs = AggregationCostModel(iface).elect(sets, chosen)
    if winner_costs is not None:
        result.breakdowns = {
            index: CostBreakdown(rank, c1, c2)
            for index, (rank, c1, c2) in enumerate(
                zip(result.aggregators, winner_costs[0].tolist(), winner_costs[1].tolist())
            )
        }
    return result


def placement_cost(
    placement: PlacementResult,
    partitions: Partitions,
    iface: TopologyInterface,
) -> float:
    """Total objective value (sum of C1+C2 over partitions) of a placement.

    Each partition's aggregator is costed as one chosen candidate of the
    segmented election at rank granularity, whatever granularity placed it.
    Used by tests and ablations to verify that the topology-aware strategy
    never does worse than the alternatives under the paper's own metric.
    """
    sets = CandidateSets.of(partitions, iface)
    aggregators = np.asarray(placement.aggregators, dtype=np.int64)
    chosen = np.flatnonzero(sets.ranks == aggregators[sets.segments])
    require(
        chosen.size == len(partitions),
        "every aggregator must be a rank of its own partition",
    )
    aggregation, io = AggregationCostModel(iface).elect(sets, chosen)
    return sum((aggregation + io).tolist())
