"""The aggregator-node assignment problem behind optimal placement.

A :class:`PlacementProblem` freezes, for every partition, the cost of
electing each of its candidate nodes, split into two components:

* ``latency_s`` — the hop-latency terms (C1 latency plus the C2 latency when
  the I/O locality is known).  Latency is per message and is not affected by
  how many aggregators share a node.
* ``transfer_s`` — the bandwidth-derived terms (bytes over link bandwidth
  for every producer, plus the C2 volume term).  These streams all cross the
  elected node's injection link, so when ``m`` partitions elect aggregators
  on the same node each one's transfer seconds are scaled by ``m`` (a
  multiplicative sharing factor).

The coupled objective of an assignment ``a`` is therefore::

    T(a) = Σ_p  latency_p(a_p) + m(a_p) · transfer_p(a_p)

with ``m(n)`` the number of partitions assigned to node ``n``.  With all
multiplicities equal to one this is the sum of the paper's ``TopoAware``
values (up to the rounding of summing latency and transfer apart), which is
what the greedy per-partition election minimises; greedy can only be
suboptimal when partitions share candidate nodes (boundary nodes of
contiguous partitions whose size is not a whole number of nodes).

A problem is built from a node-granularity election
(:meth:`PlacementProblem.from_election`): its candidates are the election's
:class:`~repro.core.cost_model.CandidateSets`, costed from the election's
own term tensors, gathered once per chunk
(:meth:`~repro.core.cost_model.AggregationCostModel.chunk_terms`), and its
greedy choice (:func:`greedy_choice`) is the node the election chose in
each partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cost_model import AggregationCostModel, CandidateSets
from repro.core.partitioning import Partitions
from repro.core.placement import elect_partitions
from repro.core.topology_iface import TopologyInterface
from repro.utils.validation import require


@dataclass(frozen=True)
class CandidateCost:
    """Cost of electing one candidate node for one partition.

    Attributes:
        node: the candidate compute node.
        latency_s: hop-latency seconds (unaffected by co-location).
        transfer_s: bandwidth-derived seconds (scaled by the node's
            aggregator multiplicity in the coupled objective).
    """

    node: int
    latency_s: float
    transfer_s: float

    @property
    def base_s(self) -> float:
        """The uncoupled (multiplicity-1) cost — the paper's TopoAware value."""
        return self.latency_s + self.transfer_s


@dataclass(frozen=True)
class PartitionCandidates:
    """One partition's candidate nodes, sorted ascending by (base_s, node).

    Attributes:
        index: partition index.
        candidates: the candidate nodes' costs.
        elected: position in ``candidates`` of the node the placement
            elected for this partition.
    """

    index: int
    candidates: tuple[CandidateCost, ...]
    elected: int

    def __post_init__(self) -> None:
        require(len(self.candidates) > 0, f"partition {self.index} has no candidates")
        require(
            0 <= self.elected < len(self.candidates),
            f"partition {self.index} elects position {self.elected} of "
            f"{len(self.candidates)} candidates",
        )

    def signature(self) -> tuple[tuple[int, float, float], ...]:
        """Hashable identity used for symmetry breaking in the exact solver."""
        return tuple(
            (c.node, c.latency_s, c.transfer_s) for c in self.candidates
        )


class PlacementProblem:
    """A frozen aggregator-node assignment instance.

    A *choice* is a tuple with one candidate position per partition
    (position ``k`` selects ``partitions[p].candidates[k]``).
    """

    def __init__(self, partitions: Sequence[PartitionCandidates]) -> None:
        require(len(partitions) > 0, "placement problem has no partitions")
        self.partitions = tuple(partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def choice_nodes(self, choice: Sequence[int]) -> tuple[int, ...]:
        """The node elected by each partition under ``choice``."""
        return tuple(
            part.candidates[position].node
            for part, position in zip(self.partitions, choice)
        )

    @classmethod
    def from_election(
        cls,
        partitions: Partitions,
        iface: TopologyInterface,
        strategy: str,
        seed: int | None = None,
    ) -> "PlacementProblem":
        """The assignment problem behind the node-granularity election of
        ``partitions`` by ``strategy``.

        Every candidate node is costed from the election's own term
        tensors (:meth:`~repro.core.cost_model.AggregationCostModel.chunk_terms`):
        a topology-aware election hands over each chunk it costed, any
        other strategy's candidates are costed chunk by chunk here, so
        every chunk is gathered once.  Each partition's ``elected``
        position is the node the election chose.
        """
        sets = CandidateSets.of(partitions, iface, "node")
        split = _SplitCosts(sets)
        chosen, _ = elect_partitions(
            sets, iface, [(strategy, seed, 0, len(partitions))], each_chunk=split.add
        )
        if strategy != "topology-aware":
            for chunk in AggregationCostModel(iface).chunk_terms(sets):
                split.add(*chunk)
        lat_s, xfer_s = split.totals(iface)
        base_s = lat_s + xfer_s
        # Each partition's candidates ascending by (base_s, node).
        order = np.lexsort((sets.nodes, base_s, sets.segments))
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        elected = (position[chosen] - sets.offsets[:-1]).tolist()
        candidates = [
            CandidateCost(node=node, latency_s=lat, transfer_s=xfer)
            for node, lat, xfer in zip(
                sets.nodes[order].tolist(), lat_s[order].tolist(), xfer_s[order].tolist()
            )
        ]
        bounds = sets.offsets.tolist()
        return cls(
            [
                PartitionCandidates(index, tuple(candidates[start:stop]), elected[index])
                for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            ]
        )


def assignment_cost(problem: PlacementProblem, choice: Sequence[int]) -> float:
    """The coupled objective ``T(a)`` of a choice (seconds)."""
    require(
        len(choice) == problem.num_partitions,
        f"choice has {len(choice)} entries for {problem.num_partitions} partitions",
    )
    latency = 0.0
    counts: dict[int, int] = {}
    transfer: dict[int, float] = {}
    for part, position in zip(problem.partitions, choice):
        candidate = part.candidates[position]
        latency += candidate.latency_s
        counts[candidate.node] = counts.get(candidate.node, 0) + 1
        transfer[candidate.node] = transfer.get(candidate.node, 0.0) + candidate.transfer_s
    return latency + sum(counts[node] * transfer[node] for node in counts)


def greedy_choice(problem: PlacementProblem) -> tuple[int, ...]:
    """The paper's independent per-partition election: the placement's own.

    For a topology-aware placement this is each partition's ``(C1 + C2,
    rank)`` argmin from the segmented election, ties broken towards the
    lowest rank as ``MPI_Allreduce(MINLOC)`` does.
    """
    return tuple(part.elected for part in problem.partitions)


class _SplitCosts:
    """Per-candidate ``(latency_s, transfer_s)`` of node-granularity
    ``sets``, added up chunk by chunk from the election's term tensors.

    The producers of each candidate are summed in ascending node order
    (candidate sets list them by representative rank, which may differ):
    the tensors are reindexed along the producer axis, and accumulating
    down it adds left to right, latency and transfer terms apart.
    """

    def __init__(self, sets: CandidateSets) -> None:
        self.sets = sets
        self.lat_s = np.zeros(sets.nodes.size)
        self.xfer_s = np.zeros(sets.nodes.size)

    def add(self, rows, columns, latency, transfer) -> None:
        order = np.argsort(self.sets.nodes[rows], axis=1)[:, :, None]
        for terms, total in ((latency, self.lat_s), (transfer, self.xfer_s)):
            terms = np.take_along_axis(terms, order, axis=1)
            total[columns] = np.add.accumulate(terms, axis=1)[:, -1, :]

    def totals(self, iface: TopologyInterface) -> tuple[np.ndarray, np.ndarray]:
        """Both sums; C2, when the I/O locality is known, adds its hop
        latency to one and its volume term to the other."""
        sets, lat_s, xfer_s = self.sets, self.lat_s, self.xfer_s
        if iface.io_locality_known():
            totals = sets.totals(sets.volumes)[sets.segments]
            lat_s = lat_s + iface.get_latency() * iface.io_distances(sets.nodes)
            xfer_s = xfer_s + totals / iface.io_bandwidths(sets.nodes)
        return lat_s, xfer_s
