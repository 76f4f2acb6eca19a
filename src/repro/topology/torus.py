"""N-dimensional torus topology (IBM Blue Gene/Q).

Mira's interconnect is a 5D torus with a theoretical bandwidth of 1.8 GBps
per link (paper, Section V-A1).  Partitions allocated to a job are themselves
tori, so we model a job partition directly as an ``A x B x C x D x E`` torus.
Messages are routed with dimension-order routing, taking the shorter
direction around each ring (this is the deterministic routing the BG/Q uses
by default and is what the hop-distance ``d(u, v)`` in the paper's cost model
measures).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.topology.base import Link, Route, Topology
from repro.utils.units import gbps
from repro.utils.validation import require, require_positive

#: Default per-link bandwidth on the BG/Q 5D torus (1.8 GBps).
BGQ_LINK_BANDWIDTH = gbps(1.8)

#: Default per-hop latency on the BG/Q torus.  The BG/Q network has a
#: hardware latency of roughly 0.5 us per hop; the MPI-visible per-hop cost
#: is closer to a microsecond, which is the value used here.
BGQ_LINK_LATENCY = 1.0e-6


class TorusTopology(Topology):
    """An n-dimensional torus with dimension-order minimal routing.

    Args:
        dims: size of each torus dimension, e.g. ``(4, 4, 4, 4, 2)`` for a
            512-node BG/Q partition.
        link_bandwidth: bandwidth of every torus link in bytes/s.
        link_latency: per-hop latency in seconds.

    The node numbering is row-major over the coordinates (last dimension
    varies fastest), matching the "ABCDE" ordering used on the BG/Q.
    """

    name = "torus"

    def __init__(
        self,
        dims: Sequence[int],
        *,
        link_bandwidth: float = BGQ_LINK_BANDWIDTH,
        link_latency: float = BGQ_LINK_LATENCY,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        require(len(dims) >= 1, "torus needs at least one dimension")
        for d in dims:
            require_positive(d, "torus dimension")
        self._dims = dims
        self._bandwidth = require_positive(link_bandwidth, "link_bandwidth")
        self._latency = require_positive(link_latency, "link_latency")
        self._num_nodes = 1
        for d in dims:
            self._num_nodes *= d
        # Row-major strides for coordinate <-> node id conversion.
        self._strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            self._strides[i] = self._strides[i + 1] * dims[i + 1]
        self.name = f"{len(dims)}D torus {'x'.join(str(d) for d in dims)}"

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def dimensions(self) -> tuple[int, ...]:
        return self._dims

    def coordinates(self, node: int) -> tuple[int, ...]:
        self.validate_node(node)
        coords = []
        remainder = node
        for stride, dim in zip(self._strides, self._dims):
            coord, remainder = divmod(remainder, stride)
            coords.append(coord)
        return tuple(coords)

    def node_from_coordinates(self, coords: Sequence[int]) -> int:
        require(
            len(coords) == len(self._dims),
            f"expected {len(self._dims)} coordinates, got {len(coords)}",
        )
        node = 0
        for coord, dim, stride in zip(coords, self._dims, self._strides):
            if not 0 <= coord < dim:
                raise ValueError(f"coordinate {coord} out of range [0, {dim})")
            node += coord * stride
        return node

    def neighbors(self, node: int) -> list[int]:
        coords = list(self.coordinates(node))
        result = []
        for axis, dim in enumerate(self._dims):
            if dim == 1:
                continue
            for delta in (-1, +1):
                neighbor = coords.copy()
                neighbor[axis] = (coords[axis] + delta) % dim
                neighbor_id = self.node_from_coordinates(neighbor)
                if neighbor_id != node and neighbor_id not in result:
                    result.append(neighbor_id)
        return result

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    @staticmethod
    def _ring_distance(a: int, b: int, size: int) -> int:
        """Shortest distance between two positions on a ring of ``size``."""
        diff = abs(a - b)
        return min(diff, size - diff)

    @staticmethod
    def _ring_step(a: int, b: int, size: int) -> int:
        """Direction (+1/-1) of the shortest path from a to b on a ring.

        Ties (exactly half way around an even ring) are broken towards +1,
        which matches a deterministic routing choice.
        """
        if a == b:
            return 0
        forward = (b - a) % size
        backward = (a - b) % size
        return +1 if forward <= backward else -1

    def _distance_impl(self, src: int, dst: int) -> int:
        src_coords = self.coordinates(src)
        dst_coords = self.coordinates(dst)
        return sum(
            self._ring_distance(a, b, dim)
            for a, b, dim in zip(src_coords, dst_coords, self._dims)
        )

    def _batch_distances(self, node, ids: np.ndarray) -> np.ndarray:
        """Closed-form hop count: per-axis shortest ring distance, summed.

        One axis at a time, so a broadcast pair tensor needs temporaries the
        size of the result, not ``ndims`` times it.
        """
        node, ids = np.asarray(node), np.asarray(ids)
        hops = 0
        for stride, dim in zip(self._strides, self._dims):
            diff = np.abs(ids // stride % dim - node // stride % dim)
            hops = hops + np.minimum(diff, dim - diff)
        return hops

    def _batch_path_bandwidths(self, node, ids: np.ndarray) -> np.ndarray:
        """Every torus link has the same bandwidth; self-pairs are ``inf``."""
        return np.where(ids == node, np.inf, self._bandwidth)

    def _route_impl(self, src: int, dst: int) -> Route:
        """Dimension-order route: correct each dimension in turn."""
        self.validate_node(src, "src")
        self.validate_node(dst, "dst")
        if src == dst:
            return Route(src, dst, ())
        links: list[Link] = []
        current = list(self.coordinates(src))
        dst_coords = self.coordinates(dst)
        for axis, dim in enumerate(self._dims):
            step = self._ring_step(current[axis], dst_coords[axis], dim)
            while current[axis] != dst_coords[axis]:
                here = self.node_from_coordinates(current)
                current[axis] = (current[axis] + step) % dim
                there = self.node_from_coordinates(current)
                links.append(self._intern_link(here, there, "torus", self._bandwidth))
        return Route(src, dst, tuple(links))

    def latency(self) -> float:
        return self._latency

    def link_bandwidth(self, kind: str = "default") -> float:
        if kind in ("default", "torus"):
            return self._bandwidth
        raise ValueError(f"unknown link kind {kind!r} for a torus")

    def links_within(self, nodes: Iterable[int]) -> list[Link]:
        """Directed torus links with both endpoints inside ``nodes``.

        These are the links a torus *partition* owns outright: traffic
        between two members of a contiguous sub-box allocation stays on them
        (minimal ring routing never leaves a box smaller than half of each
        ring), so a contiguous allocation shares no links with other jobs,
        while scattered allocations own far fewer internal links than their
        traffic needs.  Analysis/diagnostics helper (the contention ledger
        consumes :meth:`link_loads` instead); tests use it to prove the
        sub-box isolation property.
        """
        member = set(nodes)
        for node in member:
            self.validate_node(node)
        links: list[Link] = []
        for node in sorted(member):
            for neighbor in self.neighbors(node):
                if neighbor in member:
                    links.append(
                        self._intern_link(node, neighbor, "torus", self._bandwidth)
                    )
        return links

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def bgq_partition(cls, num_nodes: int) -> "TorusTopology":
        """Build a BG/Q-like 5D torus partition with ``num_nodes`` nodes.

        The BG/Q allocates partitions in multiples of 512 nodes with shapes
        such as ``4x4x4x4x2`` (512), ``4x4x4x8x2`` (1024), ``4x4x8x8x2``
        (2048), ``4x8x8x8x2`` (4096)...  For smaller (test-scale) node counts
        we fall back to a balanced 5D shape whose product equals
        ``num_nodes`` rounded up to the next power of two.
        """
        require_positive(num_nodes, "num_nodes")
        known_shapes = {
            32: (2, 2, 2, 2, 2),
            64: (2, 2, 2, 4, 2),
            128: (2, 2, 4, 4, 2),
            256: (2, 4, 4, 4, 2),
            512: (4, 4, 4, 4, 2),
            1024: (4, 4, 4, 8, 2),
            2048: (4, 4, 8, 8, 2),
            4096: (4, 8, 8, 8, 2),
            8192: (8, 8, 8, 8, 2),
            16384: (8, 8, 8, 16, 2),
            32768: (8, 8, 16, 16, 2),
            49152: (8, 12, 16, 16, 2),
        }
        if num_nodes in known_shapes:
            return cls(known_shapes[num_nodes])
        # Generic fallback: factor num_nodes greedily into 5 dimensions.
        dims = [1, 1, 1, 1, 1]
        remaining = num_nodes
        axis = 0
        factor = 2
        while remaining > 1:
            if remaining % factor == 0:
                dims[axis % 5] *= factor
                remaining //= factor
                axis += 1
            else:
                factor += 1
                if factor > remaining:
                    dims[axis % 5] *= remaining
                    break
        topo = cls(tuple(dims))
        require(
            topo.num_nodes == num_nodes,
            f"could not factor {num_nodes} nodes into a 5D torus",
        )
        return topo
