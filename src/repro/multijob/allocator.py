"""Node allocation for multi-job runs, with pluggable placement policies.

The allocator hands machine nodes to jobs the way a batch scheduler would:

* ``contiguous`` — pack each job into the lowest free node ids (how the ALCF
  Cobalt scheduler fills a drained machine);
* ``scattered`` — stride each job's nodes uniformly across the free pool
  (the fragmented placement jobs actually receive on a busy machine);
* ``topology-aware`` — fill whole routers/psets/sub-boxes before starting
  the next one, so a job's aggregation traffic shares as few links with
  other jobs as possible.

Policies only reorder the free pool; allocation is always "first
``num_nodes`` of the policy's ordering", which keeps them composable and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        require_positive(num_nodes, "num_nodes")
        require(
            job_name not in self._granted,
            f"job {job_name!r} already holds an allocation",
        )
        require(
            num_nodes <= len(self._free),
            f"job {job_name!r} requests {num_nodes} nodes but only "
            f"{len(self._free)} are free",
        )
        taken = self._ordered_free(num_nodes)[:num_nodes]
        nodes, self._free = self._free[taken], np.delete(self._free, taken)
        self._granted.add(job_name)
        return Allocation(job_name, tuple(nodes.tolist()))

    # ------------------------------------------------------------------ #
    # Policy orderings
    # ------------------------------------------------------------------ #

    def _ordered_free(self, num_nodes: int) -> np.ndarray:
        """Positions in the (ascending) free pool, in the policy's order."""
        if self.policy == "contiguous":
            return np.arange(len(self._free))
        if self.policy == "scattered":
            return self._scattered_order(num_nodes)
        return self._topology_order()

    def _scattered_order(self, num_nodes: int) -> np.ndarray:
        """Stride the free pool so the job lands spread across the machine.

        Picks every ``len(free) / num_nodes``-th free node first, then the
        remainder — the non-contiguous shape a fragmented machine produces.
        """
        stride = max(1, len(self._free) // num_nodes)
        remainder = np.ones(len(self._free), dtype=bool)
        remainder[::stride] = False
        return np.concatenate((np.flatnonzero(~remainder), np.flatnonzero(remainder)))

    def _topology_order(self) -> np.ndarray:
        """Group free nodes by their first-hop device and fill groups whole.

        On a dragonfly, nodes sharing an Aries router come first as a unit;
        on any other machine the I/O partition (the Pset of a torus) plays
        that role.  Groups with the most free nodes are preferred so jobs
        occupy as few partially-shared devices as possible; ties go to the
        lower group key, and nodes within a group ascend.
        """
        free = self._free
        topology = self.machine.topology
        if hasattr(topology, "routers_of"):
            key = topology.routers_of(free)
        else:
            key = self.machine.partitions_of_nodes(free)
        _, group, size = np.unique(key, return_inverse=True, return_counts=True)
        return np.lexsort((free, key, -size[group]))
