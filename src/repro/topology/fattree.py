"""Two-level fat-tree topology.

The paper's topology abstraction is explicitly designed to be portable beyond
the BG/Q torus and XC40 dragonfly ("a generic interface ... for use on any
system", Section IV-C).  To demonstrate that portability in this
reproduction, the fat tree is a third, independent topology: leaf switches
connect ``nodes_per_leaf`` compute nodes, and every leaf switch connects to
every spine switch.  This is the common commodity-cluster layout (and a good
stand-in for InfiniBand clusters).

It is used by tests and examples that exercise the generic topology
interface and the aggregator placement on an architecture the paper did not
evaluate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.base import Link, Route, Topology
from repro.utils.units import gbps
from repro.utils.validation import require, require_positive

#: Default link bandwidth (EDR InfiniBand-class, ~12.5 GBps).
FATTREE_LINK_BANDWIDTH = gbps(12.5)
#: Default per-hop latency.
FATTREE_LINK_LATENCY = 1.0e-6


class FatTreeTopology(Topology):
    """A two-level (leaf/spine) fat tree.

    Args:
        leaves: number of leaf switches.
        spines: number of spine switches.
        nodes_per_leaf: compute nodes attached to each leaf switch.
        link_bandwidth: bandwidth of every link in bytes/s.
        link_latency: per-hop latency in seconds.
    """

    name = "fat-tree"

    def __init__(
        self,
        leaves: int,
        spines: int,
        nodes_per_leaf: int,
        *,
        link_bandwidth: float = FATTREE_LINK_BANDWIDTH,
        link_latency: float = FATTREE_LINK_LATENCY,
    ) -> None:
        self._leaves = int(require_positive(leaves, "leaves"))
        self._spines = int(require_positive(spines, "spines"))
        self._nodes_per_leaf = int(require_positive(nodes_per_leaf, "nodes_per_leaf"))
        self._bandwidth = require_positive(link_bandwidth, "link_bandwidth")
        self._latency = require_positive(link_latency, "link_latency")
        self.name = (
            f"fat-tree leaves={self._leaves} spines={self._spines} "
            f"nodes/leaf={self._nodes_per_leaf}"
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._leaves * self._nodes_per_leaf

    def dimensions(self) -> tuple[int, ...]:
        return (self._leaves, self._spines, self._nodes_per_leaf)

    def coordinates(self, node: int) -> tuple[int, ...]:
        """(leaf switch index, slot on the leaf) of a node."""
        self.validate_node(node)
        return divmod(node, self._nodes_per_leaf)

    def node_from_coordinates(self, coords: Sequence[int]) -> int:
        require(len(coords) == 2, "fat-tree coordinates are (leaf, slot)")
        leaf, slot = (int(c) for c in coords)
        if not 0 <= leaf < self._leaves:
            raise ValueError(f"leaf {leaf} out of range [0, {self._leaves})")
        if not 0 <= slot < self._nodes_per_leaf:
            raise ValueError(f"slot {slot} out of range [0, {self._nodes_per_leaf})")
        return leaf * self._nodes_per_leaf + slot

    def leaf_of(self, node: int) -> int:
        """Leaf switch index the node attaches to."""
        self.validate_node(node)
        return node // self._nodes_per_leaf

    def neighbors(self, node: int) -> list[int]:
        """Nodes on the same leaf switch."""
        leaf = self.leaf_of(node)
        base = leaf * self._nodes_per_leaf
        return [n for n in range(base, base + self._nodes_per_leaf) if n != node]

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def _distance_impl(self, src: int, dst: int) -> int:
        """Switch-to-switch hops: 0 same node, 1 same leaf, 2 via a spine."""
        self.validate_node(src, "src")
        self.validate_node(dst, "dst")
        if src == dst:
            return 0
        if self.leaf_of(src) == self.leaf_of(dst):
            return 1
        return 2

    def _batch_distances(self, node, ids: np.ndarray) -> np.ndarray:
        """Closed form: 0 same node, 1 same leaf, 2 via a spine."""
        same_leaf = (ids // self._nodes_per_leaf) == node // self._nodes_per_leaf
        return np.where(ids == node, 0, np.where(same_leaf, 1, 2))

    def _batch_path_bandwidths(self, node, ids: np.ndarray) -> np.ndarray:
        """Every fat-tree link has the same bandwidth; self-pairs are ``inf``."""
        return np.where(ids == node, np.inf, self._bandwidth)

    def _batch_route_links(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Closed-form route in four slots: injection, uplink to the hashed
        spine, downlink, ejection; same-leaf routes skip the spine slots.

        Link ids: injection out of node ``n`` is ``n``, ejection into it is
        ``N + n``, uplink ``leaf -> spine`` is ``2N + leaf·S + spine`` and
        downlink ``spine -> leaf`` is ``2N + L·S + spine·L + leaf`` (``N``
        nodes, ``L`` leaves, ``S`` spines).
        """
        num_nodes = self.num_nodes
        leaves, spines = self._leaves, self._spines
        leaf_a = src // self._nodes_per_leaf
        leaf_b = dst // self._nodes_per_leaf
        spine = (leaf_a + leaf_b) % spines
        links = np.empty((4, src.size), dtype=np.int64)
        links[0] = src
        links[1] = 2 * num_nodes + leaf_a * spines + spine
        links[2] = 2 * num_nodes + leaves * spines + spine * leaves + leaf_b
        links[3] = num_nodes + dst
        links[1:3, leaf_a == leaf_b] = -1
        links[:, src == dst] = -1
        return links.T

    def _spine_for(self, src_leaf: int, dst_leaf: int) -> int:
        """Deterministic spine choice for a leaf pair (static ECMP hash)."""
        return (src_leaf + dst_leaf) % self._spines

    def _route_impl(self, src: int, dst: int) -> Route:
        self.validate_node(src, "src")
        self.validate_node(dst, "dst")
        if src == dst:
            return Route(src, dst, ())
        leaf_src = self.leaf_of(src)
        leaf_dst = self.leaf_of(dst)
        links: list[Link] = [
            self._intern_link(src, ("leaf", leaf_src), "injection", self._bandwidth)
        ]
        if leaf_src != leaf_dst:
            spine = self._spine_for(leaf_src, leaf_dst)
            links.append(
                self._intern_link(
                    ("leaf", leaf_src), ("spine", spine), "uplink", self._bandwidth
                )
            )
            links.append(
                self._intern_link(
                    ("spine", spine), ("leaf", leaf_dst), "downlink", self._bandwidth
                )
            )
        links.append(
            self._intern_link(("leaf", leaf_dst), dst, "ejection", self._bandwidth)
        )
        return Route(src, dst, tuple(links))

    def latency(self) -> float:
        return self._latency

    def link_bandwidth(self, kind: str = "default") -> float:
        if kind in ("default", "injection", "ejection", "uplink", "downlink"):
            return self._bandwidth
        raise ValueError(f"unknown link kind {kind!r} for a fat tree")
