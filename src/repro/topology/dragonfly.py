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
nodes_per_router + slot``.  Auxiliary route endpoints are tagged tuples
``("router", router_id)`` so flow counting can distinguish injection, local
and global links.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.topology.base import Endpoint, Link, LinkLoad, Route, Topology
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
        self.validate_node(node)
        return node // self._nodes_per_router

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

    def router_distance(self, router_a: int, router_b: int) -> int:
        """Minimal number of router-to-router links between two routers."""
        if router_a == router_b:
            return 0
        group_a = router_a // self._routers_per_group
        group_b = router_b // self._routers_per_group
        if group_a == group_b:
            return 1  # all-to-all within the group
        hops = 1  # the global link itself
        gw_a = self._gateway_router(group_a, group_b)
        gw_b = self._gateway_router(group_b, group_a)
        if gw_a != router_a:
            hops += 1  # local hop to the gateway router
        if gw_b != router_b:
            hops += 1  # local hop from the remote gateway to the destination
        return hops

    def _distance_impl(self, src: int, dst: int) -> int:
        """Router-to-router hops between the nodes' routers (0 if same router).

        This matches the paper's statement that the minimal node-to-node
        distance on the XC40 is at most three hops.
        """
        self.validate_node(src, "src")
        self.validate_node(dst, "dst")
        if src == dst:
            return 0
        return self.router_distance(self.router_of(src), self.router_of(dst))

    def _batch_distances(self, node, ids: np.ndarray) -> np.ndarray:
        """Closed-form hops from the dragonfly's group arithmetic.

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

    def _router_path(self, router_a: int, router_b: int) -> list[tuple[int, int, str]]:
        """Sequence of (router, router, kind) hops between two routers."""
        if router_a == router_b:
            return []
        group_a = router_a // self._routers_per_group
        group_b = router_b // self._routers_per_group
        if group_a == group_b:
            return [(router_a, router_b, "local")]
        gw_a = self._gateway_router(group_a, group_b)
        gw_b = self._gateway_router(group_b, group_a)
        path: list[tuple[int, int, str]] = []
        if router_a != gw_a:
            path.append((router_a, gw_a, "local"))
        path.append((gw_a, gw_b, "global"))
        if gw_b != router_b:
            path.append((gw_b, router_b, "local"))
        return path

    def _route_impl(self, src: int, dst: int) -> Route:
        self.validate_node(src, "src")
        self.validate_node(dst, "dst")
        if src == dst:
            return Route(src, dst, ())
        router_src = self.router_of(src)
        router_dst = self.router_of(dst)
        links: list[Link] = [
            self._intern_link(
                src, ("router", router_src), "injection", self._injection_bw
            )
        ]
        for a, b, kind in self._router_path(router_src, router_dst):
            bandwidth = self._local_bw if kind == "local" else self._global_bw
            links.append(
                self._intern_link(("router", a), ("router", b), kind, bandwidth)
            )
        links.append(
            self._intern_link(("router", router_dst), dst, "ejection", self._injection_bw)
        )
        return Route(src, dst, tuple(links))

    def global_link_loads(
        self, flows: Iterable[tuple[int, int]]
    ) -> dict[tuple[Endpoint, Endpoint], LinkLoad]:
        """Flow accounting restricted to the scarce optical inter-group links.

        The dragonfly's global links are the resource concurrent jobs are
        most likely to fight over (each group pair is served by a single
        optical link in this model).  Analysis/diagnostics helper: the
        contention ledger itself consumes the full :meth:`link_loads`
        accounting; this view isolates the optical subset of it.
        """
        return {
            key: load
            for key, load in self.link_loads(flows).items()
            if load.link.kind == "global"
        }

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
