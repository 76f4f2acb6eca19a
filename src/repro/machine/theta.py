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

import numpy as np

from repro.machine.machine import IOGateway, Machine
from repro.machine.node import knl_node
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.utils.validation import require_positive


class ThetaMachine(Machine):
    """A Theta allocation of ``num_nodes`` KNL nodes.

    Args:
        num_nodes: allocation size (the full machine has ~3,624 usable nodes;
            the paper uses 512, 1,024 and 2,048).
        stripe: Lustre striping applied to the output file(s); defaults to
            the Theta system default (1 OST, 1 MiB stripes).  The paper's
            tuned configurations use 48 OSTs with 8 or 16 MiB stripes.
        lustre: optional Lustre model override.
    """

    name = "Theta (Cray XC40)"
    default_ranks_per_node = 16

    def __init__(
        self,
        num_nodes: int = 512,
        *,
        stripe: LustreStripeConfig | None = None,
        lustre: LustreModel | None = None,
    ) -> None:
        require_positive(num_nodes, "num_nodes")
        self._requested_nodes = int(num_nodes)
        self.topology = DragonflyTopology.theta_partition(num_nodes)
        self.node_spec = knl_node()
        self.stripe = stripe or LustreStripeConfig.theta_default()
        self._lustre = (lustre or LustreModel.theta()).with_stripe(self.stripe)

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

    def with_stripe(self, stripe: LustreStripeConfig) -> "ThetaMachine":
        """A copy of this machine whose output files use ``stripe``."""
        return ThetaMachine(
            self._requested_nodes, stripe=stripe, lustre=self._lustre
        )

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
        """Peak write bandwidth achievable with the configured striping (bytes/s)."""
        return self._lustre.peak_write_bandwidth()

    def stripe_for_job(
        self, *, ost_start: int, stripe_count: int = 48, stripe_size: int | None = None
    ) -> LustreStripeConfig:
        """Striping for one job of a multi-job run, anchored at ``ost_start``.

        Concurrent jobs pick different (or deliberately identical) anchors to
        land their files on disjoint or shared OST sets; the stripe wraps
        around the file system's OST count like ``lfs setstripe -i`` does.
        """
        return LustreStripeConfig(
            stripe_count=stripe_count,
            stripe_size=self.stripe.stripe_size if stripe_size is None else stripe_size,
            ost_start=ost_start % self._lustre.num_osts,
        )

    def routers_used(self) -> list[int]:
        """Aries routers hosting at least one allocated node."""
        return np.unique(self.topology.routers_of(range(self.num_nodes))).tolist()
