"""Route-walking oracle for the topologies' closed-form kernels.

``src/`` answers every routing question with vectorised kernels: hop counts
(``_batch_distances``), bottleneck bandwidths (``_batch_path_bandwidths``),
link-id matrices (``_batch_route_links``) and per-link bandwidths
(``_link_bandwidths``).  This module walks the same deterministic minimal
routes hop by hop, using only each topology's public geometry
(``coordinates``, ``node_from_coordinates``, ``router_of``,
``_gateway_router``, ``leaf_of``, ``dimensions``, ``link_bandwidth``), so the
kernels can be checked against a readable twin.

A link is a ``(src_endpoint, dst_endpoint, kind, bandwidth)`` tuple.  An
endpoint is a compute node id or a tagged auxiliary vertex such as
``("router", 12)``, ``("leaf", 3)`` or ``("spine", 1)``; two links are the
same directed link exactly when their ``(src_endpoint, dst_endpoint)``
pairs are equal.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.torus import TorusTopology


def route(topology: Topology, src: int, dst: int) -> list[tuple]:
    """The links a message from ``src`` to ``dst`` crosses, in order.

    Both nodes are validated; a self-route crosses no link.
    """
    topology.validate_node(src, "src")
    topology.validate_node(dst, "dst")
    if src == dst:
        return []
    if isinstance(topology, TorusTopology):
        return _torus_route(topology, src, dst)
    if isinstance(topology, DragonflyTopology):
        return _dragonfly_route(topology, src, dst)
    if isinstance(topology, FatTreeTopology):
        return _fattree_route(topology, src, dst)
    raise TypeError(f"no reference routing for {type(topology).__name__}")


def distance(topology: Topology, src: int, dst: int) -> int:
    """Hop count ``d(src, dst)`` of the paper's cost model.

    Torus: one hop per torus link.  Dragonfly: router-to-router links only
    (injection and ejection are not hops).  Fat tree: 1 on one leaf, 2 via
    a spine.
    """
    links = route(topology, src, dst)
    if isinstance(topology, DragonflyTopology):
        return sum(1 for link in links if link[2] in ("local", "global"))
    if isinstance(topology, FatTreeTopology):
        return 0 if not links else 1 if len(links) == 2 else 2
    return len(links)


def path_bandwidth(topology: Topology, src: int, dst: int) -> float:
    """Narrowest link bandwidth on the route (``inf`` on a self-route)."""
    return min((link[3] for link in route(topology, src, dst)), default=float("inf"))


def _ring_step(a: int, b: int, size: int) -> int:
    """Direction (+1/-1) of the shortest way from ``a`` to ``b`` on a ring;
    ties (exactly half way round an even ring) go +1."""
    forward = (b - a) % size
    backward = (a - b) % size
    return +1 if forward <= backward else -1


def _torus_route(topology: TorusTopology, src: int, dst: int) -> list[tuple]:
    """Dimension-order route: correct each axis in turn, the short way."""
    bandwidth = topology.link_bandwidth("torus")
    current = list(topology.coordinates(src))
    target = topology.coordinates(dst)
    links = []
    for axis, size in enumerate(topology.dimensions()):
        step = _ring_step(current[axis], target[axis], size)
        while current[axis] != target[axis]:
            here = topology.node_from_coordinates(current)
            current[axis] = (current[axis] + step) % size
            there = topology.node_from_coordinates(current)
            links.append((here, there, "torus", bandwidth))
    return links


def _dragonfly_route(topology: DragonflyTopology, src: int, dst: int) -> list[tuple]:
    """Injection, the minimal router path through the two groups' gateway
    routers (local, global, local), ejection."""
    routers_per_group = topology.dimensions()[1]
    router_a, router_b = topology.router_of(src), topology.router_of(dst)
    group_a = router_a // routers_per_group
    group_b = router_b // routers_per_group
    hops = []
    if group_a == group_b:
        if router_a != router_b:
            hops.append((router_a, router_b, "local"))
    else:
        gateway_a = topology._gateway_router(group_a, group_b)
        gateway_b = topology._gateway_router(group_b, group_a)
        if router_a != gateway_a:
            hops.append((router_a, gateway_a, "local"))
        hops.append((gateway_a, gateway_b, "global"))
        if gateway_b != router_b:
            hops.append((gateway_b, router_b, "local"))
    injection = topology.link_bandwidth("injection")
    return (
        [(src, ("router", router_a), "injection", injection)]
        + [
            (("router", a), ("router", b), kind, topology.link_bandwidth(kind))
            for a, b, kind in hops
        ]
        + [(("router", router_b), dst, "ejection", injection)]
    )


def _fattree_route(topology: FatTreeTopology, src: int, dst: int) -> list[tuple]:
    """Injection, up to spine ``(leaf_a + leaf_b) % spines`` and down when
    the leaves differ, ejection."""
    spines = topology.dimensions()[1]
    bandwidth = topology.link_bandwidth()
    leaf_a, leaf_b = topology.leaf_of(src), topology.leaf_of(dst)
    links = [(src, ("leaf", leaf_a), "injection", bandwidth)]
    if leaf_a != leaf_b:
        spine = ("spine", (leaf_a + leaf_b) % spines)
        links.append((("leaf", leaf_a), spine, "uplink", bandwidth))
        links.append((spine, ("leaf", leaf_b), "downlink", bandwidth))
    links.append((("leaf", leaf_b), dst, "ejection", bandwidth))
    return links
