"""Abstract interconnect topology interface.

Every concrete topology (torus, dragonfly, fat tree) implements
:class:`Topology`.  The interface mirrors the quantities of the paper's cost
model (Section IV-B, Listing 1's ``DistanceBetweenRanks``):

* ``distance(a, b)`` — the number of hops ``d(u, v)``;
* ``path_bandwidth(a, b)`` — ``B``, the narrowest link bandwidth on the
  route, so a transfer costs ``l·d + ω/B`` (:meth:`Topology.transfer_time`);
* ``latency()`` — the per-hop link latency ``l``;
* ``route_links(src, dst)`` — the links each route crosses, as integer link
  ids, which the flow analysis and the contention ledger count flows over.

Nodes are integers in ``range(num_nodes)``.  A route is a row of link ids:
within one topology two ids are equal exactly when they name the same
directed link, whatever auxiliary vertex (router, switch) it leaves from.

Every concrete topology answers with closed-form vectorised kernels:
``_batch_distances`` and ``_batch_path_bandwidths`` for hop counts and
bottleneck bandwidths (broadcast over pair tensors by
:meth:`Topology.pair_metrics`), ``_batch_route_links`` for the link-id
matrix and ``_link_bandwidths`` for each link's bandwidth.  The scalar
``distance``/``path_bandwidth``/``transfer_time`` share one per-instance
``(src, dst) → (hops, bandwidth)`` memo filled from the same kernels.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

#: Pair-memo cap.  The memo is cleared wholesale when it overflows — the
#: access pattern (placement sweeps over a fixed node set) makes a full
#: clear-and-refill far cheaper than per-entry LRU bookkeeping.
_MAX_DISTANCE_CACHE = 1 << 20


class Topology(abc.ABC):
    """Abstract base class for interconnect topologies."""

    #: Human readable name, e.g. ``"5D torus"``.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of compute nodes."""

    @abc.abstractmethod
    def dimensions(self) -> tuple[int, ...]:
        """Topology dimensions.

        For a torus this is the size of each dimension; other topologies
        return a descriptive tuple (e.g. ``(groups, routers_per_group,
        nodes_per_router)`` for a dragonfly).
        """

    @abc.abstractmethod
    def coordinates(self, node: int) -> tuple[int, ...]:
        """Coordinates of ``node`` in the topology's natural coordinate system."""

    @abc.abstractmethod
    def node_from_coordinates(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`coordinates`."""

    @abc.abstractmethod
    def neighbors(self, node: int) -> list[int]:
        """Compute nodes directly connected to ``node``.

        For indirect topologies (dragonfly, fat tree) these are the nodes
        reachable through a single switch/router, i.e. sharing the first-hop
        device.
        """

    # ------------------------------------------------------------------ #
    # Metric quantities used by the cost model
    # ------------------------------------------------------------------ #

    def _pair(self, src: int, dst: int) -> tuple[int, float]:
        """Memoised ``(hops, bottleneck bandwidth)`` of one node pair.

        Both nodes are validated on a miss (self-pairs too), which is then
        filled from the closed-form batch kernels as plain Python numbers.
        """
        cache = self.__dict__.get("_fp_pairs")
        if cache is None:
            cache = self.__dict__["_fp_pairs"] = {}
        key = (src, dst)
        hit = cache.get(key)
        if hit is None:
            self.validate_node(src, "src")
            self.validate_node(dst, "dst")
            ids = np.array([dst], dtype=np.int64)
            hit = (
                int(self._batch_distances(src, ids)[0]),
                float(self._batch_path_bandwidths(src, ids)[0]),
            )
            if len(cache) >= _MAX_DISTANCE_CACHE:
                cache.clear()
            cache[key] = hit
        return hit

    def distance(self, src: int, dst: int) -> int:
        """Number of hops ``d(src, dst)`` between two compute nodes."""
        return self._pair(src, dst)[0]

    @abc.abstractmethod
    def latency(self) -> float:
        """Per-hop link latency ``l`` in seconds."""

    @abc.abstractmethod
    def link_bandwidth(self, kind: str = "default") -> float:
        """Bandwidth in bytes/s of links of class ``kind``.

        ``kind="default"`` returns the bandwidth of the most common
        node-to-node link class; concrete topologies document their classes.
        """

    # ------------------------------------------------------------------ #
    # Batch queries (the placement cost model)
    # ------------------------------------------------------------------ #

    def _as_node_array(self, nodes: Iterable[int]) -> np.ndarray:
        """Validated int64 array of compute-node ids."""
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        ids = np.asarray(nodes, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            bad = ids[(ids < 0) | (ids >= self.num_nodes)][0]
            raise ValueError(
                f"node must be in [0, {self.num_nodes}), got {int(bad)!r}"
            )
        return ids

    def distances_from(self, node: int, nodes: Iterable[int]) -> np.ndarray:
        """Hop distances from ``node`` to each node of ``nodes`` (int64 array).

        Equals ``[self.distance(node, n) for n in nodes]`` exactly.
        """
        self.validate_node(node)
        return self._batch_distances(node, self._as_node_array(nodes))

    def path_bandwidths_from(self, node: int, nodes: Iterable[int]) -> np.ndarray:
        """Narrowest-link bandwidth from ``node`` to each of ``nodes``.

        Equals ``[self.path_bandwidth(node, n) for n in nodes]`` exactly
        (``inf`` for self-pairs).
        """
        self.validate_node(node)
        return self._batch_path_bandwidths(node, self._as_node_array(nodes))

    @abc.abstractmethod
    def _batch_distances(self, node, ids: np.ndarray) -> np.ndarray:
        """Vectorised hop counts from ``node`` to validated node ids (int64).

        ``node`` is one validated id, or an array of ids that broadcasts
        against ``ids`` into pair tensors (:meth:`pair_metrics`).
        """

    @abc.abstractmethod
    def _batch_path_bandwidths(self, node, ids: np.ndarray) -> np.ndarray:
        """Vectorised bottleneck bandwidths from ``node`` (``inf`` on self);
        ``node`` broadcasts as in :meth:`_batch_distances`."""

    def route_links(self, src: Iterable[int], dst: Iterable[int]) -> np.ndarray:
        """Integer link ids of the deterministic route of each ``(src, dst)``.

        Returns an int64 ``(flows, slots)`` matrix with one fixed slot per
        hop a route of this topology can take (``slots`` is the longest
        possible route).  Row ``i``'s non-negative entries, read left to
        right, are the links ``src[i]``'s message crosses to ``dst[i]``;
        slots that route skips hold ``-1`` (a self-pair's row is all
        ``-1``).  Within one topology two ids are equal exactly when they
        name the same directed link, so flow counting is a reduction over
        ids; :meth:`_link_bandwidths` gives each id's bandwidth.
        """
        src, dst = self._as_node_array(src), self._as_node_array(dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError(
                f"src and dst must be equal-length 1-D, got {src.shape} and {dst.shape}"
            )
        return self._batch_route_links(src, dst)

    @abc.abstractmethod
    def _batch_route_links(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Closed-form :meth:`route_links` over validated, equal-length ids."""

    @abc.abstractmethod
    def _link_bandwidths(self, ids: np.ndarray) -> np.ndarray:
        """Bandwidth (float64, bytes/s) of each link id of :meth:`route_links`."""

    def pair_metrics(self, sources, targets) -> tuple[np.ndarray, np.ndarray]:
        """``(hops, bandwidths)`` from each entry of a row of ``sources`` to
        each entry of the matching row of ``targets``.

        ``sources`` has shape ``(..., n)`` and ``targets`` ``(..., m)``;
        both results have shape ``(..., n, m)`` with ``hops[..., i, j] =
        distance(sources[..., i], targets[..., j])`` and
        ``bandwidths[..., i, j]`` the matching ``path_bandwidth`` (``inf``
        on same-node pairs).  One broadcast of the closed-form batch
        kernels covers a whole stack of node sets, so the placement
        election builds every same-size partition's pair tensors in one
        call.
        """
        rows = self._as_node_array(sources)[..., :, None]
        columns = self._as_node_array(targets)[..., None, :]
        hops = self._batch_distances(rows, columns).astype(np.int64)
        bandwidths = self._batch_path_bandwidths(rows, columns).astype(np.float64)
        return hops, bandwidths

    # ------------------------------------------------------------------ #
    # Derived helpers (shared implementations)
    # ------------------------------------------------------------------ #

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Bandwidth of the narrowest link on the route (``inf`` on self)."""
        return self._pair(src, dst)[1]

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` from ``src`` to ``dst``.

        This is the latency/bandwidth model used by the paper's cost terms:
        ``l * d(src, dst) + nbytes / B_{src→dst}``.  Intra-node transfers are
        free (zero hops over an infinite bandwidth): the cost model only
        counts network movement.
        """
        hops, bandwidth = self._pair(src, dst)
        return self.latency() * hops + float(nbytes) / bandwidth

    def to_networkx(self):
        """Export the compute-node adjacency as a :class:`networkx.Graph`.

        Auxiliary vertices (routers, switches) are included as tagged nodes so
        the graph can be used for visualisation or independent verification of
        distances in tests.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        for node in range(self.num_nodes):
            for neighbor in self.neighbors(node):
                graph.add_edge(node, neighbor)
        return graph

    def validate_node(self, node: int, name: str = "node") -> int:
        """Raise ``ValueError`` if ``node`` is not a valid compute node id."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"{name} must be in [0, {self.num_nodes}), got {node!r}"
            )
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{type(self).__name__} {self.name!r} nodes={self.num_nodes}>"
