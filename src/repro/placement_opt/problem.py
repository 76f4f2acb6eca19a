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

import numpy as np

from repro.core.partitioning import Partition
from repro.core.placement import collapse_to_nodes
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
    nodes, representatives, volumes = collapse_to_nodes(partition, iface)
    latency = iface.get_latency()
    hops, bandwidths = iface.node_pair_arrays(nodes.tolist())
    # Producer rows × candidate columns.  A candidate's own node contributes
    # +0.0, and accumulating down the producer axis adds left to right, so
    # each sum equals the scalar loop over producers bit for bit.
    latency_terms = latency * hops
    transfer_terms = volumes.astype(np.float64)[:, None] / bandwidths
    np.fill_diagonal(latency_terms, 0.0)
    np.fill_diagonal(transfer_terms, 0.0)
    lat_s = np.add.accumulate(latency_terms, axis=0)[-1]
    xfer_s = np.add.accumulate(transfer_terms, axis=0)[-1]
    if iface.io_locality_known():
        lat_s = lat_s + latency * iface.io_distances(nodes)
        xfer_s = xfer_s + float(volumes.sum()) / iface.io_bandwidths(nodes)
    candidates = [
        CandidateCost(node=node, rank=rank, latency_s=lat, transfer_s=xfer)
        for node, rank, lat, xfer in zip(
            nodes.tolist(), representatives.tolist(), lat_s.tolist(), xfer_s.tolist()
        )
    ]
    candidates.sort(key=lambda c: (c.base_s, c.node))
    return PartitionCandidates(index=partition.index, candidates=tuple(candidates))
