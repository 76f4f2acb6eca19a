"""Theta: the ALCF Cray XC40 (paper, Section V-A2).

Structure reproduced here:

* Aries dragonfly interconnect — 4 KNL nodes per router, 96 routers per
  group, 14 GBps electrical links inside a group, 12.5 GBps optical links
  between groups;
* Intel KNL 7250 nodes: 68 cores, 192 GB DDR4, 16 GB MCDRAM, 128 GB SSD;
* Lustre storage: 56 OSTs / 56 OSSes reached through LNET router service
  nodes.  The vendor does not expose which LNET router serves which compute
  node, so — exactly as in the paper — :meth:`ThetaMachine.io_gateway_for_node`
  returns ``None`` and the placement cost model drops the C2 term.
"""

from __future__ import annotations

from repro.machine.machine import IOGateway, Machine
from repro.machine.node import knl_node
from repro.storage.lustre import LustreModel
from repro.topology.dragonfly import DragonflyTopology
from repro.utils.validation import require_positive


class ThetaMachine(Machine):
    """A Theta allocation of ``num_nodes`` KNL nodes.

    Args:
        num_nodes: allocation size (the full machine has ~3,624 usable nodes;
            the paper uses 512, 1,024 and 2,048).

    The file system is Theta's Lustre with the system-default stripe (1 OST,
    1 MiB stripes).  A job's file takes its own stripe (the paper's tuned
    runs use 48 OSTs with 8 or 16 MiB stripes) through
    :func:`repro.perfmodel.common.resolve_filesystem`.
    """

    name = "Theta (Cray XC40)"
    default_ranks_per_node = 16

    def __init__(self, num_nodes: int = 512) -> None:
        require_positive(num_nodes, "num_nodes")
        self._requested_nodes = int(num_nodes)
        self.topology = DragonflyTopology.theta_partition(num_nodes)
        self.node_spec = knl_node()
        self._lustre = LustreModel.theta()

    # ------------------------------------------------------------------ #
    # Machine interface
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Nodes actually allocated to the job.

        The dragonfly is sized to hold at least the requested nodes; the job
        only uses the first ``num_nodes`` of them (nodes are allocated
        router-by-router, which is how the ALCF scheduler packs jobs).
        """
        return min(self._requested_nodes, self.topology.num_nodes)

    def filesystem(self) -> LustreModel:
        return self._lustre

    def io_gateways(self) -> list[IOGateway]:
        """LNET router placement is not exposed on Theta: no gateways known."""
        return []

    def io_gateway_for_node(self, node: int) -> IOGateway | None:
        """Unknown on Theta (paper: cost C2 is set to 0)."""
        self.topology.validate_node(node)
        return None

    def io_partitions(self) -> list[list[int]]:
        """Theta has no Pset-like subfiling structure: one partition."""
        return [list(range(self.num_nodes))]

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def peak_io_bandwidth(self) -> float:
        """Peak write bandwidth of a file with the default stripe (bytes/s)."""
        return self._lustre.peak_write_bandwidth()
