"""Per-pair oracle for the segmented placement election.

:meth:`repro.core.cost_model.AggregationCostModel.elect` costs every
candidate of a whole partition list from stacked pair tensors.  The
functions here cost each partition on its own, and each candidate straight
from the paper's formulas with one scalar machine query per (producer,
candidate) pair::

    C1 = Σ_{i ≠ A}  l · d(i, A) + ω(i) / B(i, A)
    C2 = l · d(A, IO) + Σ_i ω(i) / B(A, IO)     (0 when IO locality is unknown)

``d`` and ``B`` come from ``Topology.distance`` and
``Topology.path_bandwidth`` (same-node pairs at the node's memory
bandwidth), the I/O terms from ``Machine.distance_to_io`` and
``Machine.io_bandwidth_for_node``.  Nothing here calls the cost model, and
``elect`` must agree with it bit for bit.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.cost_model import CostBreakdown


def _bandwidth(machine, src: int, dst: int) -> float:
    """Narrowest link between two nodes; memory bandwidth on one node."""
    if src == dst:
        return machine.node_spec.main_memory.bandwidth
    return machine.topology.path_bandwidth(src, dst)


def evaluate(machine, mapping, candidate: int, volumes: Mapping[int, int]) -> CostBreakdown:
    """C1 and C2 of one candidate rank, producers added in ``volumes`` order."""
    topology = machine.topology
    latency = topology.latency()
    target = mapping.node(candidate)
    aggregation = 0.0
    for rank, nbytes in volumes.items():
        if rank == candidate:
            continue
        source = mapping.node(rank)
        aggregation += latency * topology.distance(source, target) + float(
            nbytes
        ) / _bandwidth(machine, source, target)
    io = 0.0
    if machine.io_locality_known():
        io_bytes = sum(volumes.values())
        io = latency * machine.distance_to_io(target) + float(
            io_bytes
        ) / machine.io_bandwidth_for_node(target)
    return CostBreakdown(candidate, aggregation, io)


def producer_volumes(partition, mapping, granularity: str) -> dict[int, int]:
    """``{rank: bytes}`` of a partition's producers, in summation order.

    ``"rank"``: the partition's ranks as given.  ``"node"``: one entry per
    node, keyed by its lowest rank and holding its ranks' summed bytes, in
    ascending rank order.
    """
    volumes = dict(zip(partition.ranks.tolist(), partition.volumes.tolist()))
    if granularity == "rank":
        return volumes
    per_node: dict[int, tuple[int, int]] = {}
    for rank, nbytes in volumes.items():
        node = mapping.node(rank)
        lowest, total = per_node.get(node, (rank, 0))
        per_node[node] = (min(lowest, rank), total + nbytes)
    return dict(sorted(per_node.values()))


def best_candidate(
    iface, candidates: list[int], volumes: Mapping[int, int]
) -> tuple[int, list[CostBreakdown]]:
    """(winner, breakdowns) with ties broken towards the lowest rank.

    ``iface`` is the election's topology interface; only its ``machine``
    and ``mapping`` are read.
    """
    if not candidates:
        raise ValueError("no candidates to evaluate")
    breakdowns = [
        evaluate(iface.machine, iface.mapping, candidate, volumes)
        for candidate in candidates
    ]
    winner = min(breakdowns, key=lambda b: (b.total, b.candidate))
    return winner.candidate, breakdowns


def elect(
    iface, partitions, granularity: str = "rank"
) -> list[tuple[int, list[CostBreakdown]]]:
    """(winner, breakdowns) of every partition, one candidate at a time."""
    out = []
    for partition in partitions:
        volumes = producer_volumes(partition, iface.mapping, granularity)
        out.append(best_candidate(iface, list(volumes), volumes))
    return out
