"""Generic commodity-cluster machine.

The paper stresses that TAPIOCA's topology abstraction is not tied to the
BG/Q or the XC40 ("the effort required to support a new architecture is
quite low").  This module provides a third machine — a fat-tree commodity
cluster with a Lustre-like file system and explicitly known I/O gateway
nodes — so tests, examples and ablations can exercise the full placement
cost model (including the C2 term) on an architecture the paper never ran
on.
"""

from __future__ import annotations

from repro.machine.machine import IOGateway, Machine
from repro.machine.node import commodity_node
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.fattree import FatTreeTopology
from repro.utils.units import MIB, gbps
from repro.utils.validation import require, require_positive


class GenericClusterMachine(Machine):
    """A leaf/spine commodity cluster with dedicated I/O gateway nodes.

    Args:
        num_nodes: number of compute nodes.
        nodes_per_leaf: nodes attached to each leaf switch.
        num_gateways: number of I/O gateway (router/LNET-like) nodes; they
            are chosen among the compute nodes, one per leaf switch cycling.

    Its Lustre-like file system has 16 OSTs, and files default to 8 OSTs
    with 4 MiB stripes.
    """

    name = "generic fat-tree cluster"
    default_ranks_per_node = 8

    def __init__(
        self,
        num_nodes: int = 64,
        *,
        nodes_per_leaf: int = 16,
        num_gateways: int = 4,
    ) -> None:
        require_positive(num_nodes, "num_nodes")
        require_positive(nodes_per_leaf, "nodes_per_leaf")
        require_positive(num_gateways, "num_gateways")
        require(
            num_nodes % nodes_per_leaf == 0,
            f"num_nodes={num_nodes} must be a multiple of nodes_per_leaf={nodes_per_leaf}",
        )
        leaves = num_nodes // nodes_per_leaf
        spines = max(2, leaves // 2)
        self.topology = FatTreeTopology(leaves, spines, nodes_per_leaf)
        self.node_spec = commodity_node()
        self._lustre = LustreModel(
            num_osts=16,
            stripe=LustreStripeConfig(stripe_count=8, stripe_size=4 * MIB),
            ost_write_bandwidth=gbps(0.5),
            ost_read_bandwidth=gbps(1.0),
        )
        self.num_gateways = min(num_gateways, num_nodes)
        self._gateways = self._build_gateways()

    def _build_gateways(self) -> list[IOGateway]:
        """Place one gateway on the first node of every ``num_gateways``-th leaf."""
        leaves, _, nodes_per_leaf = self.topology.dimensions()
        gateways = []
        for index in range(self.num_gateways):
            leaf = (index * max(1, leaves // self.num_gateways)) % leaves
            node = leaf * nodes_per_leaf
            gateways.append(IOGateway(node=node, io_node=index, bandwidth=gbps(5.0)))
        return gateways

    # ------------------------------------------------------------------ #
    # Machine interface
    # ------------------------------------------------------------------ #

    def filesystem(self) -> LustreModel:
        return self._lustre

    def io_gateways(self) -> list[IOGateway]:
        return list(self._gateways)

    def io_gateway_for_node(self, node: int) -> IOGateway | None:
        """The gateway with the fewest hops from ``node`` (ties: lowest index)."""
        self.topology.validate_node(node)
        return min(
            self._gateways,
            key=lambda g: (self.topology.distance(node, g.node), g.io_node),
        )


def generic_cluster(
    num_nodes: int = 64,
    *,
    nodes_per_leaf: int = 16,
    num_gateways: int = 4,
) -> GenericClusterMachine:
    """Convenience constructor for :class:`GenericClusterMachine`."""
    return GenericClusterMachine(
        num_nodes, nodes_per_leaf=nodes_per_leaf, num_gateways=num_gateways
    )
