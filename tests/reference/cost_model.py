"""Per-candidate oracle for the segmented placement election.

:meth:`repro.core.cost_model.AggregationCostModel.elect` costs every
candidate of a whole partition list from stacked pair tensors.  The
functions here evaluate each partition on its own, and each candidate
through :meth:`~repro.core.cost_model.AggregationCostModel.evaluate` -- one
scalar interface query per (producer, candidate) pair -- and must agree bit
for bit.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.cost_model import AggregationCostModel, CostBreakdown


def best_candidate(
    model: AggregationCostModel, candidates: list[int], volumes: Mapping[int, int]
) -> tuple[int, list[CostBreakdown]]:
    """(winner, breakdowns) with ties broken towards the lowest rank."""
    if not candidates:
        raise ValueError("no candidates to evaluate")
    breakdowns = [model.evaluate(candidate, volumes) for candidate in candidates]
    winner = min(breakdowns, key=lambda b: (b.total, b.candidate))
    return winner.candidate, breakdowns


def producer_volumes(partition, iface, granularity: str) -> dict[int, int]:
    """``{rank: bytes}`` of a partition's producers, in summation order.

    ``"rank"``: the partition's ranks as given.  ``"node"``: one entry per
    node, keyed by its lowest rank and holding its ranks' summed bytes, in
    ascending rank order.
    """
    volumes = partition.volume_map()
    if granularity == "rank":
        return volumes
    per_node: dict[int, tuple[int, int]] = {}
    for rank, nbytes in volumes.items():
        node = iface.node_of_rank(rank)
        lowest, total = per_node.get(node, (rank, 0))
        per_node[node] = (min(lowest, rank), total + nbytes)
    return dict(sorted(per_node.values()))


def elect(
    model: AggregationCostModel, partitions, granularity: str = "rank"
) -> list[tuple[int, list[CostBreakdown]]]:
    """(winner, breakdowns) of every partition, one candidate at a time."""
    out = []
    for partition in partitions:
        volumes = producer_volumes(partition, model.iface, granularity)
        out.append(best_candidate(model, list(volumes), volumes))
    return out
