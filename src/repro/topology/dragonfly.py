"""Dragonfly topology (Cray XC40 / Aries).

Theta's interconnect is an Aries dragonfly (paper, Section V-A2):

* 4 KNL nodes attach to each Aries router;
* 96 routers form a *group*, internally connected all-to-all (two-dimensional
  all-to-all in hardware; we model the effective all-to-all) with 14 GBps
  electrical links;
* groups are connected all-to-all with 12.5 GBps optical links;
* the minimal route between two nodes crosses at most three router-to-router
  links (local, global, local).

Nodes are numbered ``group * routers_per_group * nodes_per_router + router *
nodes_per_router + slot``.  Link ids (:meth:`DragonflyTopology._batch_route_links`)
number injection, ejection and router-to-router links apart, and a
router-to-router link is local or global by its two routers' groups.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.topology.base import Topology
from repro.utils.units import gbps
from repro.utils.validation import require, require_positive

#: Electrical (intra-group) link bandwidth on Aries, 14 GBps.
XC40_LOCAL_BANDWIDTH = gbps(14.0)
#: Optical (inter-group) link bandwidth on Aries, 12.5 GBps.
XC40_GLOBAL_BANDWIDTH = gbps(12.5)
#: Node injection bandwidth into its Aries router (PCIe-attached NIC), ~16 GBps.
XC40_INJECTION_BANDWIDTH = gbps(16.0)
#: Per-hop latency on the Aries network.
XC40_LINK_LATENCY = 0.5e-6


class DragonflyTopology(Topology):
    """A dragonfly network of groups of all-to-all connected routers.

    Args:
        groups: number of groups (9 two-cabinet groups on Theta).
        routers_per_group: routers in each group (96 on Theta).
        nodes_per_router: compute nodes attached to each router (4 on Theta).
        local_bandwidth: intra-group electrical link bandwidth (bytes/s).
        global_bandwidth: inter-group optical link bandwidth (bytes/s).
        injection_bandwidth: node-to-router link bandwidth (bytes/s).
        link_latency: per-hop latency in seconds.
    """

    name = "dragonfly"

    def __init__(
        self,
        groups: int = 9,
        routers_per_group: int = 96,
        nodes_per_router: int = 4,
        *,
        local_bandwidth: float = XC40_LOCAL_BANDWIDTH,
        global_bandwidth: float = XC40_GLOBAL_BANDWIDTH,
        injection_bandwidth: float = XC40_INJECTION_BANDWIDTH,
        link_latency: float = XC40_LINK_LATENCY,
    ) -> None:
        self._groups = int(require_positive(groups, "groups"))
        self._routers_per_group = int(
            require_positive(routers_per_group, "routers_per_group")
        )
        self._nodes_per_router = int(
            require_positive(nodes_per_router, "nodes_per_router")
        )
        self._local_bw = require_positive(local_bandwidth, "local_bandwidth")
        self._global_bw = require_positive(global_bandwidth, "global_bandwidth")
        self._injection_bw = require_positive(
            injection_bandwidth, "injection_bandwidth"
        )
        self._latency = require_positive(link_latency, "link_latency")
        self.name = (
            f"dragonfly g={self._groups} a={self._routers_per_group} "
            f"p={self._nodes_per_router}"
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._groups * self._routers_per_group * self._nodes_per_router

    @property
    def num_routers(self) -> int:
        """Total number of Aries routers."""
        return self._groups * self._routers_per_group

    def dimensions(self) -> tuple[int, ...]:
        return (self._groups, self._routers_per_group, self._nodes_per_router)

    def coordinates(self, node: int) -> tuple[int, ...]:
        """(group, router-within-group, slot-on-router) of a node."""
        self.validate_node(node)
        per_group = self._routers_per_group * self._nodes_per_router
        group, rest = divmod(node, per_group)
        router, slot = divmod(rest, self._nodes_per_router)
        return (group, router, slot)

    def node_from_coordinates(self, coords: Sequence[int]) -> int:
        require(len(coords) == 3, "dragonfly coordinates are (group, router, slot)")
        group, router, slot = (int(c) for c in coords)
        if not 0 <= group < self._groups:
            raise ValueError(f"group {group} out of range [0, {self._groups})")
        if not 0 <= router < self._routers_per_group:
            raise ValueError(
                f"router {router} out of range [0, {self._routers_per_group})"
            )
        if not 0 <= slot < self._nodes_per_router:
            raise ValueError(
                f"slot {slot} out of range [0, {self._nodes_per_router})"
            )
        return (
            group * self._routers_per_group + router
        ) * self._nodes_per_router + slot

    def router_of(self, node: int) -> int:
        """Global router id the node attaches to."""
        return int(self.routers_of([node])[0])

    def routers_of(self, nodes: Iterable[int]) -> np.ndarray:
        """Global router id of every node of ``nodes`` (int64, validated)."""
        return self._as_node_array(nodes) // self._nodes_per_router

    def group_of(self, node: int) -> int:
        """Group id of the node."""
        self.validate_node(node)
        return node // (self._routers_per_group * self._nodes_per_router)

    def nodes_of_router(self, router: int) -> list[int]:
        """Compute nodes attached to a router."""
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range [0, {self.num_routers})")
        base = router * self._nodes_per_router
        return list(range(base, base + self._nodes_per_router))

    def neighbors(self, node: int) -> list[int]:
        """Nodes sharing the same router (one local hop away at most)."""
        return [n for n in self.nodes_of_router(self.router_of(node)) if n != node]

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _gateway_router(self, src_group: int, dst_group: int) -> int:
        """Router within ``src_group`` holding the global link towards ``dst_group``.

        Global links are distributed round-robin over the routers of a group:
        the link from group ``g`` to group ``h`` is attached to local router
        ``h mod routers_per_group`` (skipping the self-group index).  This is a
        simplification of the Aries global-link arrangement but preserves the
        property that different destination groups use different gateway
        routers, which is what matters for contention.
        """
        local_index = dst_group % self._routers_per_group
        return src_group * self._routers_per_group + local_index

    def _batch_distances(self, node, ids: np.ndarray) -> np.ndarray:
        """Closed-form router-to-router hops (0 on one router): at most
        three, the paper's minimal node-to-node distance on the XC40.

        Same group: one local hop unless the routers coincide.  Different
        groups: the global link, plus a local hop at either end whenever the
        endpoint router is not that group's gateway towards the other group.
        """
        rpg = self._routers_per_group
        routers = ids // self._nodes_per_router
        groups = routers // rpg
        router_0 = node // self._nodes_per_router
        group_0 = router_0 // rpg
        local_0 = router_0 - group_0 * rpg
        # Gateway mismatch at the source (towards each destination group) and
        # at the destination (back towards the source's group).
        extra_src = (groups % rpg) != local_0
        extra_dst = (group_0 % rpg) != (routers - groups * rpg)
        cross = 1 + extra_src.astype(np.int64) + extra_dst.astype(np.int64)
        hops = np.where(groups == group_0, (routers != router_0).astype(np.int64), cross)
        return np.where(ids == node, 0, hops)

    def _batch_path_bandwidths(self, node, ids: np.ndarray) -> np.ndarray:
        """Bottleneck bandwidth from the link kinds a minimal route crosses.

        Every route enters and leaves through injection/ejection links; a
        same-group route adds one electrical hop, a cross-group route adds
        the optical link plus an electrical hop at whichever end is not the
        gateway router.
        """
        rpg = self._routers_per_group
        routers = ids // self._nodes_per_router
        groups = routers // rpg
        router_0 = node // self._nodes_per_router
        group_0 = router_0 // rpg
        local_0 = router_0 - group_0 * rpg
        same_router = self._injection_bw
        same_group = min(self._injection_bw, self._local_bw)
        cross_plain = min(self._injection_bw, self._global_bw)
        cross_local = min(cross_plain, self._local_bw)
        has_local = ((groups % rpg) != local_0) | (
            (group_0 % rpg) != (routers - groups * rpg)
        )
        bandwidth = np.where(
            groups == group_0,
            np.where(routers == router_0, same_router, same_group),
            np.where(has_local, cross_local, cross_plain),
        )
        return np.where(ids == node, np.inf, bandwidth)

    def _batch_route_links(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Closed-form minimal route in five slots: injection, three router
        hops, ejection.

        Link ids: injection out of node ``n`` is ``n``, ejection into it is
        ``N + n``, and the router-to-router link ``a -> b`` is
        ``2N + a·R + b`` (``N`` nodes, ``R`` routers; a router pair is either
        local or global, never both).  The router slots are ``router_a ->
        gateway_a -> gateway_b -> router_b`` across groups (the gateways of
        :meth:`_gateway_router`) and ``router_a -> router_b`` within one; a
        slot whose two ends are the same router is not taken.
        """
        num_nodes = self.num_nodes
        rpg = self._routers_per_group
        router_a = src // self._nodes_per_router
        router_b = dst // self._nodes_per_router
        group_a = router_a // rpg
        group_b = router_b // rpg
        gateway_a = group_a * rpg + group_b % rpg
        gateway_b = group_b * rpg + group_a % rpg
        hop_from = np.array([router_a, gateway_a, gateway_b])
        hop_to = np.where(
            group_a != group_b,
            [gateway_a, gateway_b, router_b],
            [router_b, gateway_a, gateway_b],
        )
        links = np.empty((5, src.size), dtype=np.int64)
        links[0] = src
        links[1:4] = np.where(
            hop_from != hop_to, 2 * num_nodes + hop_from * self.num_routers + hop_to, -1
        )
        links[4] = num_nodes + dst
        links[:, src == dst] = -1
        return links.T

    def _link_bandwidths(self, ids: np.ndarray) -> np.ndarray:
        """Injection and ejection ids (``< 2N``) carry the injection
        bandwidth; a router link ``2N + a·R + b`` is local when routers
        ``a`` and ``b`` share a group and global otherwise."""
        ids = np.asarray(ids, dtype=np.int64)
        router_a, router_b = np.divmod(ids - 2 * self.num_nodes, self.num_routers)
        same_group = router_a // self._routers_per_group == (
            router_b // self._routers_per_group
        )
        return np.where(
            ids < 2 * self.num_nodes,
            self._injection_bw,
            np.where(same_group, self._local_bw, self._global_bw),
        ).astype(np.float64)

    def latency(self) -> float:
        return self._latency

    def link_bandwidth(self, kind: str = "default") -> float:
        if kind in ("default", "local"):
            return self._local_bw
        if kind == "global":
            return self._global_bw
        if kind in ("injection", "ejection"):
            return self._injection_bw
        raise ValueError(f"unknown link kind {kind!r} for a dragonfly")

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def theta(cls) -> "DragonflyTopology":
        """The full Theta system: 9 groups x 96 routers x 4 nodes = 3456 nodes."""
        return cls(groups=9, routers_per_group=96, nodes_per_router=4)

    @classmethod
    def theta_partition(cls, num_nodes: int) -> "DragonflyTopology":
        """A Theta-like dragonfly sized to hold at least ``num_nodes`` nodes.

        Jobs on Theta are allocated nodes spread over the machine; for
        simulation we size a dragonfly with the Theta per-group geometry
        (96 routers x 4 nodes) and as many groups as needed, falling back to
        smaller groups for test-scale node counts.
        """
        require_positive(num_nodes, "num_nodes")
        nodes_per_group = 96 * 4
        if num_nodes >= nodes_per_group:
            groups = -(-num_nodes // nodes_per_group)  # ceil division
            return cls(groups=max(groups, 2), routers_per_group=96, nodes_per_router=4)
        # Small (test) configuration: shrink the group while keeping 4
        # nodes per router and at least two groups so global links exist.
        routers = max(1, -(-num_nodes // (4 * 2)))
        return cls(groups=2, routers_per_group=routers, nodes_per_router=4)
