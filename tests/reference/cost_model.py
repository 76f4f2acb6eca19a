"""Per-candidate oracle for the batched placement cost model.

:meth:`repro.core.cost_model.AggregationCostModel.best_candidate` evaluates
a whole candidate set from per-node-pair arrays.  :func:`best_candidate`
here evaluates each candidate on its own through
:meth:`~repro.core.cost_model.AggregationCostModel.evaluate` — one scalar
interface query per (producer, candidate) pair — and must agree bit for bit.
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
