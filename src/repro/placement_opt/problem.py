"""The aggregator-node assignment problem behind optimal placement.

A :class:`PlacementProblem` freezes, for every partition, the cost of
electing each of its candidate nodes, split into two components:

* ``latency_s`` — the hop-latency terms (C1 latency plus the C2 latency when
  the I/O locality is known).  Latency is per message and is not affected by
  how many aggregators share a node.
* ``transfer_s`` — the bandwidth-derived terms (bytes over link bandwidth
  for every producer, plus the C2 volume term).  These streams all cross the
  elected node's injection link, so when ``m`` partitions elect aggregators
  on the same node each one's transfer seconds are scaled by ``m`` — the
  multiplicative sharing-factor convention of
  :class:`repro.core.cost_model.ContentionFactors`.

The coupled objective of an assignment ``a`` is therefore::

    T(a) = Σ_p  latency_p(a_p) + m(a_p) · transfer_p(a_p)

with ``m(n)`` the number of partitions assigned to node ``n``.  With all
multiplicities equal to one this is exactly the sum of the paper's
``TopoAware`` values, which is what the greedy per-partition election
minimises; greedy can only be suboptimal when partitions share candidate
nodes (boundary nodes of contiguous partitions whose size is not a whole
number of nodes).

Candidate costs are computed from the same vectorised
:meth:`~repro.core.topology_iface.TopologyInterface.node_pair_arrays`
kernels the placement cost model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.partitioning import Partition
from repro.utils.validation import require


@dataclass(frozen=True)
class CandidateCost:
    """Cost of electing one candidate node for one partition.

    Attributes:
        node: the candidate compute node.
        rank: representative (lowest) world rank on the node — what the
            distributed election would report as the aggregator.
        latency_s: hop-latency seconds (unaffected by co-location).
        transfer_s: bandwidth-derived seconds (scaled by the node's
            aggregator multiplicity in the coupled objective).
    """

    node: int
    rank: int
    latency_s: float
    transfer_s: float

    @property
    def base_s(self) -> float:
        """The uncoupled (multiplicity-1) cost — the paper's TopoAware value."""
        return self.latency_s + self.transfer_s


@dataclass(frozen=True)
class PartitionCandidates:
    """One partition's candidate nodes, sorted ascending by (base_s, node)."""

    index: int
    candidates: tuple[CandidateCost, ...]

    def __post_init__(self) -> None:
        require(len(self.candidates) > 0, f"partition {self.index} has no candidates")

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(c.node for c in self.candidates)

    def position_of_node(self, node: int) -> int | None:
        for position, candidate in enumerate(self.candidates):
            if candidate.node == node:
                return position
        return None

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

    def choice_ranks(self, choice: Sequence[int]) -> tuple[int, ...]:
        """The aggregator world rank per partition under ``choice``."""
        return tuple(
            part.candidates[position].rank
            for part, position in zip(self.partitions, choice)
        )

    @classmethod
    def from_partitions(cls, partitions, iface) -> "PlacementProblem":
        """Build the assignment problem for partitions over a topology.

        Mirrors the placement path: each partition is collapsed to one
        representative rank per node (the cost model only depends on nodes
        and per-node volumes), then every node of the partition is costed as
        a candidate, through the interface's vectorised ``node_pair_arrays``
        kernel.
        """
        out = []
        for partition in partitions:
            out.append(_candidates_for_partition(partition, iface))
        return cls(out)


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
    """The paper's independent per-partition election.

    Candidates are pre-sorted ascending by ``(base_s, node)``, so greedy is
    position 0 everywhere — the argmin with ties broken towards the lowest
    node, matching ``MPI_Allreduce(MINLOC)``.
    """
    return (0,) * problem.num_partitions


def _candidates_for_partition(
    partition: Partition, iface
) -> PartitionCandidates:
    """Per-candidate (latency_s, transfer_s) splits for one partition."""
    volumes_by_node: dict[int, int] = {}
    representative: dict[int, int] = {}
    for rank in partition.ranks:
        node = iface.node_of_rank(rank)
        volumes_by_node[node] = (
            volumes_by_node.get(node, 0) + partition.bytes_per_rank[rank]
        )
        if node not in representative or rank < representative[node]:
            representative[node] = rank
    node_list = sorted(volumes_by_node)
    latency = iface.get_latency()
    total_bytes = sum(volumes_by_node.values())
    hops, bandwidths = iface.node_pair_arrays(node_list)
    candidates = []
    for column, node in enumerate(node_list):
        lat_s = 0.0
        xfer_s = 0.0
        for row, producer in enumerate(node_list):
            if producer == node:
                continue
            lat_s += latency * float(hops[row, column])
            xfer_s += float(volumes_by_node[producer]) / float(
                bandwidths[row, column]
            )
        if iface.io_locality_known():
            distance = iface.distance_to_io_node(representative[node])
            if distance is not None:
                lat_s += latency * distance
                xfer_s += float(total_bytes) / iface.io_bandwidth_of_rank(
                    representative[node]
                )
        candidates.append(
            CandidateCost(
                node=node,
                rank=representative[node],
                latency_s=lat_s,
                transfer_s=xfer_s,
            )
        )
    candidates.sort(key=lambda c: (c.base_s, c.node))
    return PartitionCandidates(index=partition.index, candidates=tuple(candidates))
