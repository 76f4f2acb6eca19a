"""Abstract interconnect topology interface.

Every concrete topology (torus, dragonfly, fat tree) implements
:class:`Topology`.  The interface deliberately mirrors the quantities used in
the paper's cost model (Section IV-B):

* ``distance(a, b)`` — the number of hops ``d(u, v)``;
* ``latency()`` — the per-hop link latency ``l``;
* ``link_bandwidth(link)`` — ``B_{i→j}`` for the link actually traversed;
* ``route(a, b)`` — the sequence of links a message crosses, which the
  flow-level performance model uses to count contending flows per link.

Nodes are integers in ``range(num_nodes)``.  Routes may traverse auxiliary
vertices (switches, routers); these are represented as hashable endpoint
identifiers so that flow counting does not need to know the topology type.

Caching and batching.  ``distance``/``route`` answers are memoised per
topology instance (the uncached computations are ``_distance_impl`` /
``_route_impl``), ``Link`` objects are interned (one object per directed
link of the machine instead of a fresh allocation per route), and the batch
queries :meth:`Topology.distances_from` / :meth:`Topology.routes_from` /
:meth:`Topology.path_bandwidths_from` / :meth:`Topology.pair_metrics` let
the cost model evaluate whole candidate sets without per-pair Python
dispatch.  Every concrete topology
implements them with closed-form vectorised kernels (``_batch_distances`` /
``_batch_path_bandwidths``) that equal the per-pair answers exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

#: A route endpoint: either a compute node id (int) or a tagged auxiliary
#: vertex such as ``("router", 12)`` or ``("switch", 3)``.
Endpoint = Hashable

#: Cache-size caps.  The caches are cleared wholesale when they overflow —
#: the access pattern (placement sweeps over a fixed node set) makes a
#: full clear-and-refill far cheaper than per-entry LRU bookkeeping.
_MAX_DISTANCE_CACHE = 1 << 20
_MAX_ROUTE_CACHE = 1 << 18


@dataclass(frozen=True)
class Link:
    """A directed link in the interconnect.

    Attributes:
        src: source endpoint (node id or tagged auxiliary vertex).
        dst: destination endpoint.
        kind: link class, e.g. ``"torus"``, ``"local"`` (electrical),
            ``"global"`` (optical), ``"injection"`` (node to router/switch).
        bandwidth: link bandwidth in bytes per second.
    """

    src: Endpoint
    dst: Endpoint
    kind: str
    bandwidth: float

    def reversed(self) -> "Link":
        """Return the same link in the opposite direction."""
        return Link(self.dst, self.src, self.kind, self.bandwidth)

    @property
    def key(self) -> tuple[Endpoint, Endpoint]:
        """Hashable (src, dst) pair identifying this directed link."""
        return (self.src, self.dst)


@dataclass(frozen=True)
class LinkLoad:
    """Flow count on one directed link (per-link flow accounting).

    Attributes:
        link: the directed link.
        flows: number of flows whose deterministic route traverses it.
    """

    link: Link
    flows: int


@dataclass(frozen=True)
class Route:
    """The path a message takes between two compute nodes.

    Attributes:
        src: source node id.
        dst: destination node id.
        links: ordered sequence of :class:`Link` traversed.  Empty when the
            source and destination are the same node (intra-node transfer).
    """

    src: int
    dst: int
    links: tuple[Link, ...]

    @property
    def hops(self) -> int:
        """Number of network links traversed."""
        return len(self.links)

    @property
    def min_bandwidth(self) -> float:
        """Bandwidth of the narrowest link on the route (inf for self-routes)."""
        if not self.links:
            return float("inf")
        return min(link.bandwidth for link in self.links)


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

    def distance(self, src: int, dst: int) -> int:
        """Number of hops ``d(src, dst)`` between two compute nodes.

        Memoised per instance; the uncached computation lives in
        :meth:`_distance_impl`.
        """
        cache = self.__dict__.get("_fp_distances")
        if cache is None:
            cache = self.__dict__["_fp_distances"] = {}
        key = (src, dst)
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= _MAX_DISTANCE_CACHE:
                cache.clear()
            hit = cache[key] = self._distance_impl(src, dst)
        return hit

    def route(self, src: int, dst: int) -> Route:
        """The deterministic (minimal) route between two compute nodes.

        Memoised per instance; the uncached computation lives in
        :meth:`_route_impl`.
        """
        cache = self.__dict__.get("_fp_routes")
        if cache is None:
            cache = self.__dict__["_fp_routes"] = {}
        key = (src, dst)
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= _MAX_ROUTE_CACHE:
                cache.clear()
            hit = cache[key] = self._route_impl(src, dst)
        return hit

    @abc.abstractmethod
    def _distance_impl(self, src: int, dst: int) -> int:
        """Uncached hop count between two compute nodes."""

    @abc.abstractmethod
    def _route_impl(self, src: int, dst: int) -> Route:
        """Uncached deterministic route between two compute nodes."""

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
    # Link interning
    # ------------------------------------------------------------------ #

    def _intern_link(
        self, src: Endpoint, dst: Endpoint, kind: str, bandwidth: float
    ) -> Link:
        """One shared :class:`Link` object per directed link of the machine.

        Routes traverse the same physical links over and over; interning
        keeps one frozen ``Link`` per ``(src, dst, kind)`` instead of
        allocating an identical object on every ``route()`` call.  Interning
        is keyed per topology instance, so two machines with different link
        bandwidths never share objects.
        """
        pool = self.__dict__.get("_fp_links")
        if pool is None:
            pool = self.__dict__["_fp_links"] = {}
        key = (src, dst, kind)
        link = pool.get(key)
        if link is None:
            link = pool[key] = Link(src, dst, kind, bandwidth)
        return link

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

    def routes_from(self, node: int, nodes: Iterable[int]) -> list[Route]:
        """Routes from ``node`` to each node of ``nodes`` (cache-served)."""
        self.validate_node(node)
        return [self.route(node, int(n)) for n in self._as_node_array(nodes)]

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
        """Bandwidth of the narrowest link on the route from src to dst."""
        if src == dst:
            return float("inf")
        return self.route(src, dst).min_bandwidth

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` from ``src`` to ``dst``.

        This is the latency/bandwidth model used by the paper's cost terms:
        ``l * d(src, dst) + nbytes / B_{src→dst}``.  Intra-node transfers are
        modelled as free (the cost model only counts network movement).
        """
        if src == dst:
            return 0.0
        hops = self.distance(src, dst)
        return self.latency() * hops + float(nbytes) / self.path_bandwidth(src, dst)

    def link_loads(
        self, flows: Iterable[tuple[int, int]]
    ) -> dict[tuple[Endpoint, Endpoint], LinkLoad]:
        """Per-link flow accounting over the deterministic routes of ``flows``.

        Args:
            flows: ``(src, dst)`` node pairs; self-flows are ignored (they do
                not touch the network).

        Returns:
            Mapping from directed link key to the :class:`LinkLoad` counting
            how many of the given flows traverse that link.  This is the
            primitive the multi-job contention ledger uses to decide which
            links two concurrent jobs share.
        """
        # Accumulate plain counters and materialise one LinkLoad per link at
        # the end instead of allocating a fresh frozen dataclass on every
        # increment (large background-flow sets hit each link many times).
        counts: dict[tuple[Endpoint, Endpoint], int] = {}
        links: dict[tuple[Endpoint, Endpoint], Link] = {}
        for src, dst in flows:
            if src == dst:
                continue
            for link in self.route(src, dst).links:
                key = link.key
                counts[key] = counts.get(key, 0) + 1
                links[key] = link
        return {key: LinkLoad(links[key], count) for key, count in counts.items()}

    def average_distance(self, nodes: Iterable[int] | None = None) -> float:
        """Mean pairwise hop distance over ``nodes`` (defaults to all nodes).

        Only intended for small node sets (diagnostics and tests); the cost is
        quadratic in the number of nodes.
        """
        node_list = list(nodes) if nodes is not None else list(range(self.num_nodes))
        if len(node_list) < 2:
            return 0.0
        total = 0
        count = 0
        for i, a in enumerate(node_list):
            for b in node_list[i + 1 :]:
                total += self.distance(a, b)
                count += 1
        return total / count

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
