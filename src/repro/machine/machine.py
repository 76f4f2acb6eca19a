"""The Machine abstraction tying together topology, nodes and storage.

This is the Python analogue of the paper's topology-abstraction interface
(Listing 1): everything TAPIOCA asks about a platform goes through a
:class:`Machine`.  Concrete machines (Mira, Theta, generic clusters) only
have to describe their structure; the queries the cost model needs —
``DistanceBetweenRanks``-style node distances, ``DistanceToIONode``,
``IONodesPerFile``, link bandwidths and latency — are answered here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.machine.node import NodeSpec
from repro.storage.base import FileSystemModel
from repro.topology.base import Topology
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class IOGateway:
    """A gateway from the compute fabric towards the storage system.

    On the BG/Q this is a bridge node (a compute-fabric node with a dedicated
    link to its Pset's I/O node).  On systems where the gateway locality is
    not exposed (Theta's LNET routers) machines simply return no gateways and
    the placement cost model drops the C2 term, as the paper does.

    Attributes:
        node: compute-fabric node id of the gateway.
        io_node: identifier of the I/O node / storage target behind it.
        bandwidth: bandwidth of the gateway link in bytes/s.
    """

    node: int
    io_node: int
    bandwidth: float


def _gather(table: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``table[nodes]``, rejecting node ids outside the table."""
    nodes = np.asarray(nodes, dtype=np.int64)
    outside = (nodes < 0) | (nodes >= table.size)
    if outside.any():
        raise ValueError(f"node must be in [0, {table.size}), got {int(nodes[outside][0])}")
    return table[nodes]


class Machine(abc.ABC):
    """Abstract platform model.

    Concrete subclasses must populate :attr:`topology`, :attr:`node_spec` and
    :attr:`num_nodes`, and implement the I/O-side queries.
    """

    #: Human readable machine name.
    name: str = "abstract"
    #: Interconnect topology of the allocation.
    topology: Topology
    #: Compute node description.
    node_spec: NodeSpec
    #: Default number of MPI ranks per node used in the paper's experiments.
    default_ranks_per_node: int = 16

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes in the allocation."""
        return self.topology.num_nodes

    # ------------------------------------------------------------------ #
    # Storage-side queries (the paper's Listing 1)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def filesystem(self) -> FileSystemModel:
        """The file-system performance model for this allocation."""

    @abc.abstractmethod
    def io_gateways(self) -> list[IOGateway]:
        """All known gateways to the storage system (may be empty)."""

    @abc.abstractmethod
    def io_gateway_for_node(self, node: int) -> IOGateway | None:
        """The gateway a given compute node's I/O is routed through.

        Returns ``None`` when the platform does not expose the information
        (Theta); the cost model then sets the C2 term to zero.
        """

    def io_locality_known(self) -> bool:
        """Whether gateway placement information is available."""
        return len(self.io_gateways()) > 0

    def distance_to_io(self, node: int) -> int | None:
        """Hop distance from ``node`` to its I/O gateway (``None`` if unknown).

        The final gateway-to-I/O-node link counts as one extra hop, matching
        ``MPIX_IO_distance`` semantics on the BG/Q.
        """
        gateway = self.io_gateway_for_node(node)
        if gateway is None:
            return None
        return self.topology.distance(node, gateway.node) + 1

    def io_bandwidth_for_node(self, node: int) -> float | None:
        """Bandwidth of the pipe from ``node``'s gateway into storage (bytes/s)."""
        gateway = self.io_gateway_for_node(node)
        if gateway is None:
            return None
        return gateway.bandwidth

    def io_distances(self, nodes: np.ndarray) -> np.ndarray:
        """Batched :meth:`distance_to_io` (int64), a gather over a per-node
        table built once; every node must have a gateway
        (:meth:`io_locality_known`)."""
        return _gather(self._io_table[0], nodes)

    def io_bandwidths(self, nodes: np.ndarray) -> np.ndarray:
        """Batched :meth:`io_bandwidth_for_node` (float64), same precondition."""
        return _gather(self._io_table[1], nodes)

    @cached_property
    def _io_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(hops to the I/O node, gateway bandwidth) of every node."""
        nodes = range(self.num_nodes)
        return (
            np.array([self.distance_to_io(n) for n in nodes], dtype=np.int64),
            np.array([self.io_bandwidth_for_node(n) for n in nodes], dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Multi-job allocation surfaces
    # ------------------------------------------------------------------ #

    def allocatable_nodes(self) -> list[int]:
        """Node ids a multi-job allocator may hand out.

        The default offers every node of the allocation; machines with
        reserved service nodes can override this.
        """
        return list(range(self.num_nodes))

    def storage_resources(self, access: str = "write"):
        """Shared storage resources concurrent jobs on this machine contend for.

        Returns the machine file system's
        :class:`~repro.storage.base.SharedResource` list; the multi-job
        contention ledger seeds its capacity table from it.
        """
        return self.filesystem().shared_resources(access)

    # ------------------------------------------------------------------ #
    # Subfiling / partition structure
    # ------------------------------------------------------------------ #

    def io_partitions(self) -> list[list[int]]:
        """Groups of nodes that naturally share an I/O target.

        On the BG/Q these are the Psets (used for the one-file-per-Pset
        subfiling recommended on Mira); machines without such structure
        return a single group with every node.
        """
        return [list(range(self.num_nodes))]

    def partition_of_node(self, node: int) -> int:
        """Index of the I/O partition containing ``node``."""
        self.topology.validate_node(node)
        return int(self.partitions_of_nodes(np.array([node]))[0])

    def partitions_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """I/O partition index of every node of ``nodes`` (one table gather)."""
        result = _gather(self._partition_table, nodes)
        if (result < 0).any():
            bad = int(np.asarray(nodes)[result < 0][0])
            raise ValueError(f"node {bad} is not in any I/O partition")
        return result

    @cached_property
    def _partition_table(self) -> np.ndarray:
        """``table[node]``: first I/O partition holding the node, -1 for none."""
        table = np.full(self.num_nodes, -1, dtype=np.int64)
        for index, nodes in reversed(list(enumerate(self.io_partitions()))):
            table[nodes] = index
        return table

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def validate_ranks_per_node(self, ranks_per_node: int) -> int:
        """Check that ``ranks_per_node`` fits the node's hardware threads."""
        require_positive(ranks_per_node, "ranks_per_node")
        require(
            ranks_per_node <= self.node_spec.hardware_threads,
            f"{ranks_per_node} ranks per node exceeds the node's "
            f"{self.node_spec.hardware_threads} hardware threads",
        )
        return ranks_per_node

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{type(self).__name__} {self.name!r} nodes={self.num_nodes}>"
