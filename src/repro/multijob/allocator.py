"""Node allocation for multi-job runs, with pluggable placement policies.

The allocator hands machine nodes to jobs the way a batch scheduler would:

* ``contiguous`` — pack each job into the lowest free node ids (how the ALCF
  Cobalt scheduler fills a drained machine);
* ``scattered`` — stride each job's nodes uniformly across the free pool
  (the fragmented placement jobs actually receive on a busy machine);
* ``topology-aware`` — fill whole routers/psets/sub-boxes before starting
  the next one, so a job's aggregation traffic shares as few links with
  other jobs as possible.

A job always takes the first ``num_nodes`` of the policy's ordering of the
pool left by the jobs before it, which keeps policies composable and
deterministic.  :meth:`NodeAllocator.allocate_all` grants a whole job list
in one walk over the pool, without rebuilding or re-sorting it per job:
the contiguous policy takes consecutive slices, the scattered one deletes
a stride of the remaining positions, and the topology-aware one keeps every
device group's free nodes and a heap of ``(-free, group)`` entries.
:meth:`NodeAllocator.allocate` is the one-job call of that walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.machine.machine import Machine
from repro.utils.validation import require, require_positive

#: Placement policies understood by :class:`NodeAllocator`.
ALLOCATION_POLICIES = ("contiguous", "scattered", "topology-aware")


@dataclass(frozen=True)
class Allocation:
    """Nodes granted to one job.

    Attributes:
        job_name: the requesting job.
        nodes: machine node ids, in rank-fill order.
    """

    job_name: str
    nodes: tuple[int, ...]


class NodeAllocator:
    """Grants machine nodes to jobs under a placement policy.

    Args:
        machine: the shared machine whose nodes are being allocated.
        policy: one of :data:`ALLOCATION_POLICIES`.
    """

    def __init__(self, machine: Machine, policy: str = "contiguous") -> None:
        require(
            policy in ALLOCATION_POLICIES,
            f"unknown allocation policy {policy!r}; expected one of "
            f"{ALLOCATION_POLICIES}",
        )
        self.machine = machine
        self.policy = policy
        self._free = np.unique(np.asarray(machine.allocatable_nodes(), dtype=np.int64))
        self._granted: set[str] = set()

    def allocate(self, job_name: str, num_nodes: int) -> Allocation:
        """Grant ``num_nodes`` nodes to ``job_name`` under the policy."""
        (nodes,) = self.allocate_all([job_name], [num_nodes])
        return Allocation(job_name, tuple(nodes.tolist()))

    def allocate_all(self, job_names: Sequence[str], counts: Sequence[int]) -> list[np.ndarray]:
        """Grant every job its nodes, in list order, in one walk: each job's
        int64 node array is what :meth:`allocate` would grant it next."""
        free, granted = len(self._free), set(self._granted)
        for name, count in zip(job_names, counts):
            require_positive(count, "num_nodes")
            require(name not in granted, f"job {name!r} already holds an allocation")
            require(
                count <= free,
                f"job {name!r} requests {count} nodes but only {free} are free",
            )
            granted.add(name)
            free -= count
        self._granted = granted
        if self.policy == "contiguous":
            bounds = list(accumulate(counts, initial=0))
            taken = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        elif self.policy == "scattered":
            taken = self._scattered_walk(counts)
        else:
            taken = self._topology_walk(counts)
        pool = self._free
        keep = np.ones(pool.size, dtype=bool)
        grants = []
        for positions in taken:
            keep[positions] = False
            grants.append(pool[positions])
        self._free = pool[keep]
        return grants

    # ------------------------------------------------------------------ #
    # Policy walks: each job's positions in the pool, in grant order
    # ------------------------------------------------------------------ #

    def _scattered_walk(self, counts: Sequence[int]) -> list[np.ndarray]:
        """Stride the remaining pool so each job lands spread across the machine.

        A job takes every ``len(remaining) // num_nodes``-th remaining node
        (at least every one), from the first — the non-contiguous shape a
        fragmented machine produces.
        """
        remaining = list(range(len(self._free)))
        taken = []
        for count in counts:
            stride = max(1, len(remaining) // count)
            picks = slice(0, (count - 1) * stride + 1, stride)
            taken.append(np.array(remaining[picks], dtype=np.int64))
            del remaining[picks]
        return taken

    def _topology_walk(self, counts: Sequence[int]) -> list[np.ndarray]:
        """Group free nodes by their first-hop device and fill groups whole.

        On a dragonfly, nodes sharing an Aries router come first as a unit;
        on any other machine the I/O partition (the Pset of a torus) plays
        that role.  Groups with the most free nodes are preferred so jobs
        occupy as few partially-shared devices as possible; ties go to the
        lower group key, and nodes within a group ascend.  A job empties
        whole groups in that order and takes the lowest free nodes of the
        last one it needs, whose shrunken size re-enters the heap.
        """
        free = self._free
        topology = self.machine.topology
        if hasattr(topology, "routers_of"):
            key = topology.routers_of(free)
        else:
            key = self.machine.partitions_of_nodes(free)
        _, group, size = np.unique(key, return_inverse=True, return_counts=True)
        members = np.argsort(group, kind="stable").tolist()
        first = (np.cumsum(size) - size).tolist()
        size = size.tolist()
        heap = [(-count, index) for index, count in enumerate(size)]
        heapq.heapify(heap)
        taken = []
        for count in counts:
            picks: list[int] = []
            while count:
                entry = heapq.heappop(heap)
                index = entry[1]
                if -entry[0] != size[index]:
                    continue  # a stale entry: the group shrank since
                grab = min(count, size[index])
                picks += members[first[index] : first[index] + grab]
                first[index] += grab
                size[index] -= grab
                count -= grab
                if size[index]:
                    heapq.heappush(heap, (-size[index], index))
            taken.append(np.array(picks, dtype=np.int64))
        return taken

