"""Mira: the ALCF IBM Blue Gene/Q (paper, Section V-A1).

Structure reproduced here:

* 5D torus interconnect, 1.8 GBps per link;
* nodes grouped in **Psets** of 128 nodes; each Pset has one I/O node
  reached through **two bridge nodes** with dedicated 2 GBps links;
* 16-core PowerPC A2 nodes with 16 GB of DDR3;
* GPFS storage behind the I/O nodes (27 PB on the real machine).

The experiments on Mira use one output file per Pset (subfiling), so the
GPFS model instance returned by :meth:`MiraMachine.filesystem` is scoped to
the allocation's Psets.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.machine.machine import IOGateway, Machine
from repro.machine.node import bgq_node
from repro.storage.gpfs import GPFSModel
from repro.topology.torus import TorusTopology
from repro.utils.units import gbps
from repro.utils.validation import require, require_positive

#: Nodes per Pset on Mira.
MIRA_PSET_SIZE = 128
#: Bridge nodes per Pset (each with a dedicated link to the I/O node).
MIRA_BRIDGE_NODES_PER_PSET = 2
#: Bandwidth of each bridge-node-to-I/O-node link (2 GBps, paper Fig. 4).
MIRA_BRIDGE_LINK_BANDWIDTH = gbps(2.0)


class MiraMachine(Machine):
    """A Mira allocation of ``num_nodes`` BG/Q nodes.

    Args:
        num_nodes: allocation size.  Mira allocates in multiples of 512
            nodes; smaller values are accepted for test-scale runs as long as
            the Pset size divides them or they are smaller than one Pset.
        pset_size: nodes per Pset (128 on the real machine; tests may shrink
            it to keep simulated configurations small while preserving the
            structure).
        gpfs: optional GPFS model override; by default one is built with one
            I/O node per Pset of the allocation.
    """

    name = "Mira (IBM BG/Q)"
    default_ranks_per_node = 16

    def __init__(
        self,
        num_nodes: int = 512,
        *,
        pset_size: int = MIRA_PSET_SIZE,
        gpfs: GPFSModel | None = None,
    ) -> None:
        require_positive(num_nodes, "num_nodes")
        require_positive(pset_size, "pset_size")
        require(
            num_nodes % pset_size == 0 or num_nodes < pset_size,
            f"num_nodes={num_nodes} must be a multiple of the Pset size "
            f"{pset_size} (or smaller than one Pset)",
        )
        self.pset_size = min(pset_size, num_nodes)
        self.topology = TorusTopology.bgq_partition(num_nodes)
        self.node_spec = bgq_node()
        self.num_psets = max(1, num_nodes // self.pset_size)
        self._gpfs = gpfs or GPFSModel.for_mira_psets(self.num_psets)
        self._gateways = self._build_gateways()

    # ------------------------------------------------------------------ #
    # Pset / bridge-node structure
    # ------------------------------------------------------------------ #

    def pset_of_node(self, node: int) -> int:
        """Pset index of a node (nodes are assigned to Psets contiguously)."""
        self.topology.validate_node(node)
        return node // self.pset_size

    def nodes_of_pset(self, pset: int) -> list[int]:
        """Compute nodes belonging to Pset ``pset``."""
        require(0 <= pset < self.num_psets, f"pset {pset} out of range")
        start = pset * self.pset_size
        return list(range(start, min(start + self.pset_size, self.num_nodes)))

    def bridge_nodes_of_pset(self, pset: int) -> list[int]:
        """The bridge nodes of a Pset.

        The real machine designates two specific nodes per Pset; we model
        them as the first node and the middle node of the Pset, which places
        them a representative number of torus hops apart.
        """
        nodes = self.nodes_of_pset(pset)
        if len(nodes) == 1:
            return [nodes[0]]
        bridges = [nodes[0], nodes[len(nodes) // 2]]
        return bridges[:MIRA_BRIDGE_NODES_PER_PSET]

    def psets_of_nodes(self, nodes: "list[int]") -> list[int]:
        """Distinct Pset indices hosting ``nodes`` (ascending).

        A multi-job run uses this to bind a job's allocation to the GPFS
        I/O-node resources it drives: a job only loads the I/O nodes of the
        Psets it actually occupies.
        """
        return sorted({self.pset_of_node(node) for node in nodes})

    def bridge_nodes(self) -> list[int]:
        """All bridge nodes of the allocation."""
        result: list[int] = []
        for pset in range(self.num_psets):
            result.extend(self.bridge_nodes_of_pset(pset))
        return result

    def _build_gateways(self) -> list[IOGateway]:
        gateways = []
        for pset in range(self.num_psets):
            for bridge in self.bridge_nodes_of_pset(pset):
                gateways.append(
                    IOGateway(
                        node=bridge,
                        io_node=pset,
                        bandwidth=MIRA_BRIDGE_LINK_BANDWIDTH,
                    )
                )
        return gateways

    # ------------------------------------------------------------------ #
    # Machine interface
    # ------------------------------------------------------------------ #

    def filesystem(self) -> GPFSModel:
        return self._gpfs

    def io_gateways(self) -> list[IOGateway]:
        return list(self._gateways)

    def io_gateway_for_node(self, node: int) -> IOGateway | None:
        """The nearest bridge node of the node's own Pset."""
        self.topology.validate_node(node)
        pset = self.pset_of_node(node)
        candidates = [g for g in self._gateways if g.io_node == pset]
        return min(
            candidates, key=lambda g: self.topology.distance(node, g.node)
        )

    def io_partitions(self) -> list[list[int]]:
        """Psets are the natural subfiling unit on Mira."""
        return [self.nodes_of_pset(p) for p in range(self.num_psets)]

    def partition_of_node(self, node: int) -> int:
        """O(1) override: a node's I/O partition is simply its Pset."""
        return self.pset_of_node(node)

    @cached_property
    def _io_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node I/O distances from two ``distances_from`` calls per Pset
        (one per bridge node); every bridge link has the same bandwidth."""
        distances = np.empty(self.num_nodes, dtype=np.int64)
        for pset in range(self.num_psets):
            members = self.nodes_of_pset(pset)
            hops = [
                self.topology.distances_from(bridge, members)
                for bridge in self.bridge_nodes_of_pset(pset)
            ]
            distances[members] = np.min(hops, axis=0) + 1
        return distances, np.full(self.num_nodes, MIRA_BRIDGE_LINK_BANDWIDTH)

    # ------------------------------------------------------------------ #
    # Paper-specific derived quantities
    # ------------------------------------------------------------------ #

    def peak_io_bandwidth(self) -> float:
        """Estimated peak I/O bandwidth of the allocation (bytes/s).

        The paper estimates 89.6 GBps for 4,096 nodes, i.e. 2.8 GBps per
        Pset; this is the per-I/O-node effective bandwidth the GPFS model is
        parameterised with.
        """
        return self._gpfs.peak_write_bandwidth()
