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

All strategies are pure functions of (partition, topology interface), so the
same placement is obtained by the analytic model and by the discrete-event
election (which still performs the actual allreduce for timing fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_model import AggregationCostModel, CostBreakdown
from repro.core.partitioning import Partition
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
    """

    strategy: str
    aggregators: list[int]
    breakdowns: dict[int, CostBreakdown] = field(default_factory=dict)

    def aggregator_of(self, partition_index: int) -> int:
        """Elected aggregator of a partition."""
        return self.aggregators[partition_index]

    def as_dict(self) -> dict[int, int]:
        """Mapping partition index -> aggregator world rank."""
        return dict(enumerate(self.aggregators))


def _topology_aware(
    partition: Partition, model: AggregationCostModel
) -> tuple[int, CostBreakdown]:
    winner, breakdowns = model.best_candidate(
        partition.ranks.tolist(), partition.volume_map()
    )
    winning = next(b for b in breakdowns if b.candidate == winner)
    return winner, winning


def _shortest_io(
    partition: Partition, iface: TopologyInterface, model: AggregationCostModel
) -> tuple[int, CostBreakdown]:
    """Winner by distance-to-I/O-node alone, costed with the caller's model.

    The model is the one ``place_aggregators`` built (it may carry the
    caller's contention factors); constructing a fresh contention-free model
    here would report breakdowns that ignore multi-job background traffic.
    """
    candidates = []
    for rank in partition.ranks.tolist():
        distance = iface.distance_to_io_node(rank)
        candidates.append((distance if distance is not None else 0, rank))
    _distance, winner = min(candidates)
    return winner, model.evaluate(winner, partition.volume_map())


def _max_volume(partition: Partition) -> int:
    """The rank holding the most bytes (ties: the lowest rank)."""
    return int(partition.ranks[np.lexsort((partition.ranks, -partition.volumes))[0]])


def collapse_to_nodes(
    partition: Partition, iface: TopologyInterface
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nodes, representatives, volumes)`` of a partition, one entry per node.

    ``nodes`` ascend; each node's representative is its lowest member rank
    and its volume the integer sum of its members' bytes.
    """
    nodes, first, inverse = np.unique(
        iface.rank_nodes(partition.ranks), return_index=True, return_inverse=True
    )
    volumes = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(volumes, inverse, partition.volumes)
    # Ranks ascend, so a node's first member is its lowest rank.
    return nodes, partition.ranks[first], volumes


def _node_level_partition(partition: Partition, iface: TopologyInterface) -> Partition:
    """Collapse a partition to one representative rank per node.

    The cost model only depends on the *nodes* involved (distances,
    bandwidths) and on per-node volumes, so evaluating one candidate per node
    is equivalent to evaluating every rank while being quadratically cheaper.
    This is what the large-scale analytic path uses; the winning node's
    lowest rank is reported as the aggregator.  Producers stay in ascending
    representative-rank order.
    """
    _nodes, representatives, volumes = collapse_to_nodes(partition, iface)
    order = np.argsort(representatives)
    return Partition(partition.index, representatives[order], volumes[order])


def place_aggregators(
    partitions: list[Partition],
    iface: TopologyInterface,
    *,
    strategy: str = "topology-aware",
    seed: int | None = None,
    granularity: str = "rank",
    contention=None,
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
        contention: optional background-traffic factors
            (:class:`~repro.core.cost_model.ContentionFactors`) folded into
            the one cost model every strategy's breakdowns come from;
            ``None`` reproduces the paper's dedicated-machine costs.

    The cost model is built once and shared by all partitions and
    strategies; the topology-aware election is evaluated against
    precomputed per-node distance/bandwidth arrays (bit-identical to
    per-candidate evaluation, see
    :meth:`~repro.core.cost_model.AggregationCostModel.best_candidate`).
    """
    require(len(partitions) > 0, "no partitions to place aggregators for")
    require(
        granularity in ("rank", "node"),
        f"granularity must be 'rank' or 'node', got {granularity!r}",
    )
    model = AggregationCostModel(iface, contention=contention)
    result = PlacementResult(strategy=strategy, aggregators=[])
    rng = seeded_rng(seed) if strategy == "random" else None
    with obs_span(
        "placement", cat="core", strategy=strategy, partitions=len(partitions)
    ):
        for original in partitions:
            partition = (
                _node_level_partition(original, iface)
                if granularity == "node"
                else original
            )
            if strategy == "topology-aware":
                winner, breakdown = _topology_aware(partition, model)
                result.breakdowns[partition.index] = breakdown
            elif strategy == "shortest-io":
                winner, breakdown = _shortest_io(partition, iface, model)
                result.breakdowns[partition.index] = breakdown
            elif strategy == "max-volume":
                winner = _max_volume(partition)
            elif strategy == "rank-order":
                winner = int(partition.ranks[0])
            elif strategy == "random":
                assert rng is not None
                winner = int(partition.ranks[rng.integers(0, partition.size)])
            else:
                raise ValueError(f"unknown placement strategy {strategy!r}")
            result.aggregators.append(winner)
    rec = obs_recorder()
    if rec is not None:
        rec.inc("placement.partitions", len(partitions), strategy=strategy)
    return result


def placement_cost(
    placement: PlacementResult,
    partitions: list[Partition],
    iface: TopologyInterface,
) -> float:
    """Total objective value (sum of C1+C2 over partitions) of a placement.

    Used by tests and ablations to verify that the topology-aware strategy
    never does worse than the alternatives under the paper's own metric.
    """
    model = AggregationCostModel(iface)
    total = 0.0
    for partition, aggregator in zip(partitions, placement.aggregators):
        total += model.evaluate(aggregator, partition.volume_map()).total
    return total
