"""Scalar oracle for the topology-aware node allocator.

:func:`topology_order` is the per-node grouping loop of one grant; the
allocator's walk (:meth:`repro.multijob.allocator.NodeAllocator.allocate_all`)
grants every job from one grouping of the free pool and a heap of device
groups, and each grant must be the head of this order over the pool the
grants before it left.
"""

from __future__ import annotations

from typing import Sequence

from repro.machine.machine import Machine


def topology_order(machine: Machine, free: Sequence[int]) -> list[int]:
    """Group free nodes by their first-hop device and fill groups whole.

    On a dragonfly, nodes sharing an Aries router come first as a unit;
    elsewhere the I/O partition plays that role.  Groups with the most free
    nodes come first, ties by group key; members ascend.
    """
    topology = machine.topology
    groups: dict[object, list[int]] = {}
    for node in free:
        if hasattr(topology, "router_of"):
            key = topology.router_of(node)
        else:
            key = machine.partition_of_node(node)
        groups.setdefault(key, []).append(node)
    ordered_groups = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    result: list[int] = []
    for _key, members in ordered_groups:
        result.extend(sorted(members))
    return result
