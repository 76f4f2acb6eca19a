"""Rank-to-node mappings.

MPI ranks are placed onto compute nodes by the job launcher.  The mapping
matters for TAPIOCA because the aggregator election operates on ranks while
the cost model operates on nodes; it also matters for the ROMIO baseline,
whose "bridge node first, then rank order" policy produces very different
node placements depending on the mapping.

Three mappings are provided:

* :func:`block_mapping` — ranks fill a node before moving to the next
  (``--map-by node:block``); the default on both Mira and Theta.
* :func:`round_robin_mapping` — ranks are dealt one per node in a cycle
  (``--map-by node:cyclic``).
* :func:`random_mapping` — a seeded random permutation, used in tests and in
  ablations to show the placement policy's sensitivity to the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.utils.rng import seeded_rng
from repro.utils.validation import require, require_positive


@dataclass(frozen=True, eq=False)
class RankMapping:
    """An immutable mapping from MPI ranks to compute nodes.

    Attributes:
        node_of_rank: ``node_of_rank[r]`` is the node hosting rank ``r``; one
            read-only int64 array, which vectorised consumers (the analytic
            models' node gathers) share without defensive copies.
        num_nodes: number of nodes in the allocation (>= max(node_of_rank)+1).
        ranks_per_node: nominal ranks per node the mapping was built with.
    """

    node_of_rank: np.ndarray
    num_nodes: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        array = np.array(self.node_of_rank, dtype=np.int64)
        array.setflags(write=False)
        object.__setattr__(self, "node_of_rank", array)

    @property
    def num_ranks(self) -> int:
        """Total number of MPI ranks."""
        return len(self.node_of_rank)

    def node(self, rank: int) -> int:
        """Node hosting ``rank``."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")
        return int(self.node_of_rank[rank])

    def nodes(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Batched :meth:`node`: the nodes hosting ``ranks`` (int64 array).

        Out-of-range ranks raise the same ``ValueError`` as :meth:`node`
        (numpy would otherwise wrap a negative rank onto the last node).
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        outside = (ranks < 0) | (ranks >= self.num_ranks)
        if outside.any():
            raise ValueError(
                f"rank {int(ranks[outside][0])} out of range [0, {self.num_ranks})"
            )
        return self.node_of_rank[ranks]

    def ranks_on_node(self, node: int) -> list[int]:
        """All ranks hosted on ``node`` (ascending)."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
        return np.flatnonzero(self.node_of_rank == node).tolist()

    def nodes_used(self) -> list[int]:
        """Sorted list of distinct nodes that host at least one rank."""
        return np.unique(self.node_of_rank).tolist()

    def as_array(self) -> np.ndarray:
        """The mapping as a writable NumPy int array (copy)."""
        return self.node_of_rank.copy()


def _validate(num_ranks: int, num_nodes: int, ranks_per_node: int) -> None:
    require_positive(num_ranks, "num_ranks")
    require_positive(num_nodes, "num_nodes")
    require_positive(ranks_per_node, "ranks_per_node")
    require(
        num_ranks <= num_nodes * ranks_per_node,
        f"{num_ranks} ranks do not fit on {num_nodes} nodes "
        f"with {ranks_per_node} ranks per node",
    )


@lru_cache(maxsize=256)
def block_mapping(num_ranks: int, num_nodes: int, ranks_per_node: int) -> RankMapping:
    """Block mapping: ranks 0..R-1 fill node 0, then node 1, ...

    Memoised: mappings are immutable pure functions of their arguments, and
    the analytic models rebuild the same default block mapping for every
    sweep point and tuning candidate of a scenario.
    """
    _validate(num_ranks, num_nodes, ranks_per_node)
    nodes = np.minimum(np.arange(num_ranks) // ranks_per_node, num_nodes - 1)
    return RankMapping(nodes, num_nodes, ranks_per_node)


def round_robin_mapping(
    num_ranks: int, num_nodes: int, ranks_per_node: int
) -> RankMapping:
    """Cyclic mapping: rank ``r`` goes to node ``r % num_nodes``."""
    _validate(num_ranks, num_nodes, ranks_per_node)
    return RankMapping(np.arange(num_ranks) % num_nodes, num_nodes, ranks_per_node)


def allocation_mapping(
    num_ranks: int,
    nodes: Sequence[int],
    *,
    num_nodes: int | None = None,
    ranks_per_node: int = 16,
) -> RankMapping:
    """Block mapping onto an explicit, possibly non-contiguous node allocation.

    This is the mapping shape a multi-job node allocator produces: a job's
    ranks fill the allocation's nodes in order, but the node ids themselves
    are whatever the allocator handed out — scattered across the machine for
    the ``scattered`` policy, router-aligned for the topology-aware one.
    The one-job call of :func:`allocation_mappings`.

    Args:
        num_ranks: number of MPI ranks of the job.
        nodes: distinct node ids allocated to the job, in fill order.
        num_nodes: total nodes of the *machine* the ids index into (defaults
            to ``max(nodes) + 1``); kept so rank→node lookups stay valid for
            machine-wide queries.
        ranks_per_node: ranks placed on each allocated node.
    """
    (mapping,) = allocation_mappings(
        [num_ranks], [nodes], num_nodes=num_nodes, ranks_per_node=[ranks_per_node]
    )
    return mapping


def allocation_mappings(
    num_ranks: Sequence[int],
    allocations: Sequence[Sequence[int]],
    *,
    num_nodes: int | None = None,
    ranks_per_node: Sequence[int],
) -> list[RankMapping]:
    """:func:`allocation_mapping` of every job of a list, from one gather
    over all their allocations; each job is checked as if mapped alone, in
    list order."""
    arrays = [np.asarray(nodes, dtype=np.int64).ravel() for nodes in allocations]
    count = len(arrays)
    sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=count)
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(arrays) if count else np.zeros(0, dtype=np.int64)
    job = np.repeat(np.arange(count), sizes)
    # One sort of (job, node) pairs finds every job's repeated nodes.
    order = np.lexsort((flat, job))
    same = (flat[order[1:]] == flat[order[:-1]]) & (job[order[1:]] == job[order[:-1]])
    duplicated = np.bincount(job[order[1:]][same], minlength=count) > 0
    lows, peaks = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    filled = sizes > 0
    if filled.any():
        lows[filled] = np.minimum.reduceat(flat, starts[filled])
        peaks[filled] = np.maximum.reduceat(flat, starts[filled])
    totals = peaks + 1 if num_nodes is None else np.full(count, int(num_nodes))
    for index, (ranks, per_node) in enumerate(zip(num_ranks, ranks_per_node)):
        size, total = int(sizes[index]), int(totals[index])
        require_positive(ranks, "num_ranks")
        require_positive(per_node, "ranks_per_node")
        require(size > 0, "allocation has no nodes")
        require(not duplicated[index], "allocation contains duplicate node ids")
        require(
            ranks <= size * per_node,
            f"{ranks} ranks do not fit on {size} allocated nodes "
            f"with {per_node} ranks per node",
        )
        require(
            0 <= lows[index] and peaks[index] < total,
            f"allocation node ids must be in [0, {total})",
        )
    # Rank r of a job fills node min(r // ranks_per_node, size - 1) of it.
    counts = np.asarray(num_ranks, dtype=np.int64)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    fill = np.minimum(
        (np.arange(first.size) - first) // np.repeat(np.asarray(ranks_per_node), counts),
        np.repeat(sizes - 1, counts),
    )
    node_of_rank = np.split(flat[fill + np.repeat(starts, counts)], np.cumsum(counts)[:-1])
    return [
        RankMapping(nodes, int(total), int(per_node))
        for nodes, total, per_node in zip(node_of_rank, totals.tolist(), ranks_per_node)
    ]


def random_mapping(
    num_ranks: int,
    num_nodes: int,
    ranks_per_node: int,
    *,
    seed: int | None = None,
) -> RankMapping:
    """Random-but-balanced mapping: a seeded shuffle of the block mapping slots."""
    _validate(num_ranks, num_nodes, ranks_per_node)
    rng = seeded_rng(seed)
    slots = np.minimum(np.arange(num_ranks) // ranks_per_node, num_nodes - 1)
    return RankMapping(slots[rng.permutation(num_ranks)], num_nodes, ranks_per_node)
