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
a :class:`~repro.machine.machine.Machine` and a rank-to-node mapping.  The
cost model and the placement strategies only ever talk to this class, so
supporting a new platform means writing a new ``Machine`` — nothing in the
core changes, which is the portability argument of the paper.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from repro.machine.machine import Machine
from repro.topology.mapping import RankMapping
from repro.utils.validation import require

#: Bandwidth levels understood by :meth:`TopologyInterface.get_bandwidth`.
LEVEL_INTERCONNECT = 0
LEVEL_IO = 1
LEVEL_MEMORY = 2


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
        self._topology = machine.topology
        # Per-interface distance cache in front of the topology's own memo.
        # The discrete-event runtime issues distance_between_ranks in bulk
        # (two small write-then-read round trips make ~130k calls), and a
        # warm call through this lru_cache costs about 20% less than going
        # through the topology memo (tuple key + an extra method dispatch).
        self._distance_cache = lru_cache(maxsize=65536)(self._distance_uncached)

    # ------------------------------------------------------------------ #
    # Listing 1 equivalents
    # ------------------------------------------------------------------ #

    def get_bandwidth(self, level: int = LEVEL_INTERCONNECT) -> float:
        """Bandwidth in bytes/s of the requested level.

        Level 0 is the interconnect link bandwidth, level 1 the bandwidth of
        the pipe towards the storage system (per I/O gateway), level 2 the
        node's main-memory bandwidth (used for intra-node aggregation).
        """
        if level == LEVEL_INTERCONNECT:
            return self._topology.link_bandwidth("default")
        if level == LEVEL_IO:
            gateways = self.machine.io_gateways()
            if gateways:
                return gateways[0].bandwidth
            # Unknown gateway locality (Theta): fall back to the file system's
            # single-stream bandwidth, which is what an aggregator sees.
            return self.machine.filesystem().aggregate_bandwidth(1, "write")
        if level == LEVEL_MEMORY:
            return self.machine.node_spec.main_memory.bandwidth
        raise ValueError(f"unknown bandwidth level {level!r}")

    def get_latency(self) -> float:
        """Interconnect per-hop latency in seconds."""
        return self._topology.latency()

    def network_dimensions(self) -> tuple[int, ...]:
        """The topology's dimension tuple."""
        return self._topology.dimensions()

    def rank_to_coordinates(self, rank: int) -> tuple[int, ...]:
        """Topology coordinates of the node hosting ``rank``."""
        return self._topology.coordinates(self.node_of_rank(rank))

    def io_nodes_per_file(self, filename: str | None = None) -> list[int]:
        """I/O gateway nodes serving a file (empty when unknown, as on Theta)."""
        return [gateway.node for gateway in self.machine.io_gateways()]

    def distance_to_io_node(self, rank: int) -> int | None:
        """Hops from ``rank``'s node to its I/O node (``None`` when unknown)."""
        return self.machine.distance_to_io(self.node_of_rank(rank))

    def distance_between_ranks(self, src_rank: int, dst_rank: int) -> int:
        """Hops between the nodes hosting two ranks."""
        return self._distance_cache(
            self.node_of_rank(src_rank), self.node_of_rank(dst_rank)
        )

    # ------------------------------------------------------------------ #
    # Additional queries used by the cost model
    # ------------------------------------------------------------------ #

    def node_of_rank(self, rank: int) -> int:
        """Compute node hosting ``rank``."""
        return self.mapping.node(rank)

    def bandwidth_between_ranks(self, src_rank: int, dst_rank: int) -> float:
        """Bandwidth of the narrowest link between two ranks' nodes (bytes/s).

        Ranks on the same node exchange data through memory.
        """
        src = self.node_of_rank(src_rank)
        dst = self.node_of_rank(dst_rank)
        if src == dst:
            return self.machine.node_spec.main_memory.bandwidth
        return self._topology.path_bandwidth(src, dst)

    def io_bandwidth_of_rank(self, rank: int) -> float:
        """Bandwidth of the pipe from ``rank``'s gateway into storage (bytes/s)."""
        bandwidth = self.machine.io_bandwidth_for_node(self.node_of_rank(rank))
        if bandwidth is None:
            return self.get_bandwidth(LEVEL_IO)
        return bandwidth

    def io_locality_known(self) -> bool:
        """Whether I/O gateway placement is available (False on Theta)."""
        return self.machine.io_locality_known()

    def _distance_uncached(self, src_node: int, dst_node: int) -> int:
        return self._topology.distance(src_node, dst_node)

    # ------------------------------------------------------------------ #
    # Batch queries (the placement cost model)
    # ------------------------------------------------------------------ #

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
        results ``(..., n, m)``.  ``hops[..., i, j]`` equals
        :meth:`distance_between_ranks` for ranks on ``sources[..., i]`` and
        ``targets[..., j]``; ``bandwidths[..., i, j]`` equals
        :meth:`bandwidth_between_ranks` -- the narrowest link on the route,
        with same-node pairs charged at the node's main-memory bandwidth.
        The placement election evaluates every candidate of a stack of
        same-size partitions against these tensors instead of issuing
        per-pair scalar queries.
        """
        hops, bandwidths = self._topology.pair_metrics(sources, targets)
        memory_bw = self.machine.node_spec.main_memory.bandwidth
        return hops, np.where(np.isinf(bandwidths), memory_bw, bandwidths)
