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

Candidate costs are computed from the same
:class:`~repro.core.cost_model.CandidateSets` and stacked
:meth:`~repro.core.topology_iface.TopologyInterface.pair_metrics` tensors
the placement election uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cost_model import CandidateSets
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
        a candidate, through the interface's stacked ``pair_metrics``
        tensors.
        """
        return cls(_partition_candidates(partitions, iface))


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


def _partition_candidates(partitions, iface) -> list[PartitionCandidates]:
    """Per-candidate (latency_s, transfer_s) splits of every partition.

    Uses the placement's node-level :class:`CandidateSets` and the same
    stacked pair tensors as the segmented election, one kernel call per
    chunk of same-size partitions.
    """
    sets = CandidateSets.of(partitions, iface, "node")
    latency = iface.get_latency()
    lat_s = np.zeros(sets.nodes.size)
    xfer_s = np.zeros(sets.nodes.size)
    for rows, columns in sets.chunks():
        # The problem sums its producers in ascending node order; candidate
        # sets list them by representative rank, which may differ.
        rows = np.take_along_axis(rows, np.argsort(sets.nodes[rows], axis=1), axis=1)
        hops, bandwidths = iface.pair_metrics(sets.nodes[rows], sets.nodes[columns])
        # Producer rows × candidate columns per partition.  A candidate's own
        # node contributes +0.0, and accumulating down the producer axis adds
        # left to right, so each sum equals the scalar loop bit for bit.
        own = rows[:, :, None] == columns[:, None, :]
        latency_terms = latency * hops
        transfer_terms = sets.volumes[rows].astype(np.float64)[:, :, None] / bandwidths
        latency_terms[own] = 0.0
        transfer_terms[own] = 0.0
        lat_s[columns] = np.add.accumulate(latency_terms, axis=1)[:, -1, :]
        xfer_s[columns] = np.add.accumulate(transfer_terms, axis=1)[:, -1, :]
    if iface.io_locality_known():
        totals = sets.totals(sets.volumes)[sets.segments]
        lat_s = lat_s + latency * iface.io_distances(sets.nodes)
        xfer_s = xfer_s + totals.astype(np.float64) / iface.io_bandwidths(sets.nodes)
    bounds = sets.offsets.tolist()
    candidates = [
        CandidateCost(node=node, rank=rank, latency_s=lat, transfer_s=xfer)
        for node, rank, lat, xfer in zip(
            sets.nodes.tolist(), sets.ranks.tolist(), lat_s.tolist(), xfer_s.tolist()
        )
    ]
    return [
        PartitionCandidates(
            index=partition.index,
            candidates=tuple(
                sorted(candidates[start:stop], key=lambda c: (c.base_s, c.node))
            ),
        )
        for partition, start, stop in zip(partitions, bounds, bounds[1:])
    ]
