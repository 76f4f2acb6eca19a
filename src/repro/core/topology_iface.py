"""Topology abstraction interface (the paper's Listing 1).

TAPIOCA's portability comes from funnelling every platform query through a
small interface::

    int  getBandwidth(int level);
    int  getLatency();
    int  NetworkDimensions();
    void RankToCoordinates(int rank, int* coord);
    int  IONodesPerFile(char* filename, int* nodesList);
    int  DistanceToIONode(int rank, int IONode);
    int  DistanceBetweenRanks(int srcRank, int destRank);

:class:`TopologyInterface` is the Python analogue, answering the queries from
a :class:`~repro.machine.machine.Machine` and a rank-to-node mapping.  It
keeps only what the placement cost model reads, and answers each Listing-1
call in batch:

* ``getLatency`` — :meth:`~TopologyInterface.get_latency`;
* ``RankToCoordinates`` — :meth:`~TopologyInterface.rank_nodes` (the cost
  model needs the node, not its coordinates);
* ``DistanceBetweenRanks`` and ``getBandwidth`` (interconnect and memory
  levels) — :meth:`~TopologyInterface.pair_metrics`, hops and narrowest-link
  bandwidth of stacked node pairs, same-node pairs at memory bandwidth;
* ``IONodesPerFile`` and ``DistanceToIONode`` —
  :meth:`~TopologyInterface.io_locality_known` and
  :meth:`~TopologyInterface.io_distances`;
* ``getBandwidth`` (I/O level) — :meth:`~TopologyInterface.io_bandwidths`;
* ``NetworkDimensions`` — not needed: distances come from the machine.

The cost model and the placement strategies only ever talk to this class,
so supporting a new platform means writing a new ``Machine`` — nothing in
the core changes, which is the portability argument of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import Machine
from repro.topology.mapping import RankMapping
from repro.utils.validation import require


class TopologyInterface:
    """Answers the paper's Listing-1 queries for one machine + rank mapping.

    Args:
        machine: platform model.
        mapping: rank-to-node mapping of the job.
    """

    def __init__(self, machine: Machine, mapping: RankMapping) -> None:
        require(
            mapping.num_nodes <= machine.num_nodes,
            f"mapping uses {mapping.num_nodes} nodes but the machine has "
            f"{machine.num_nodes}",
        )
        self.machine = machine
        self.mapping = mapping

    def get_latency(self) -> float:
        """Interconnect per-hop latency in seconds."""
        return self.machine.topology.latency()

    def io_locality_known(self) -> bool:
        """Whether I/O gateway placement is available (False on Theta)."""
        return self.machine.io_locality_known()

    def rank_nodes(self, ranks: np.ndarray) -> np.ndarray:
        """Nodes hosting ``ranks`` (int64 array aligned with ``ranks``)."""
        return self.mapping.nodes(ranks)

    def io_distances(self, nodes: np.ndarray) -> np.ndarray:
        """Batched hops from each node to its I/O node (locality known only)."""
        return self.machine.io_distances(nodes)

    def io_bandwidths(self, nodes: np.ndarray) -> np.ndarray:
        """Batched gateway-to-storage bandwidth of each node (locality known only)."""
        return self.machine.io_bandwidths(nodes)

    def pair_metrics(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node-pair ``(hops, bandwidths)`` tensors between stacked node rows.

        ``sources`` has shape ``(..., n)``, ``targets`` ``(..., m)`` and both
        results ``(..., n, m)``.  ``hops[..., i, j]`` is the topology
        distance between ``sources[..., i]`` and ``targets[..., j]``;
        ``bandwidths[..., i, j]`` is the narrowest link on their route, with
        same-node pairs charged at the node's main-memory bandwidth.  The
        placement election evaluates every candidate of a stack of
        same-size partitions against these tensors.
        """
        hops, bandwidths = self.machine.topology.pair_metrics(sources, targets)
        memory_bw = self.machine.node_spec.main_memory.bandwidth
        return hops, np.where(np.isinf(bandwidths), memory_bw, bandwidths)
