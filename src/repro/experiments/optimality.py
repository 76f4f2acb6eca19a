"""The ``placement_optimality`` experiment family.

How far from optimal is the paper's greedy aggregator election?  Four cells
— Theta (dragonfly) at two node counts, Mira (5-D torus) at two node counts
— each build the aggregator-node assignment problem of
:mod:`repro.placement_opt` and compare two solvers under the coupled
objective (co-located aggregators share their node's injection link):

* **greedy** — the paper's independent per-partition election;
* **exact** — branch-and-bound, warm-started from greedy and run on every
  cell; a proven cell's gap is exact (0 or a reported positive percentage).

A cell the search-node budget cannot prove reports its incumbent and its
lower bound, gets no "certified gap" point, and fails the proof check.
With ``placement.certify=true`` the worst cell gap also lands in the
artifact envelope's ``optimality_gap`` field, like any other certified
experiment.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.experiments.results import ExperimentResult, Series
from repro.placement_opt.certify import certify_problem, problem_for_scenario
from repro.scenario.registry import register_scenario
from repro.scenario.spec import (
    IOStrategySpec,
    MachineSpec,
    PlacementSpec,
    Scenario,
    WorkloadSpec,
)
from repro.scenario.sweep import Sweep, axis, zipped
from repro.utils.scaling import scaled_nodes
from repro.utils.units import MIB

#: Relative slack for solver-cost comparisons in the checks (float noise).
_RTOL = 1e-9


def placement_optimality_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the optimality study (smallest Theta cell)."""
    return Scenario(
        id="placement_optimality",
        title="Greedy aggregator-placement optimality gap (Theta + Mira)",
        machine=MachineSpec(kind="theta", num_nodes=scaled_nodes(256, scale)),
        workload=WorkloadSpec(kind="hacc", particles_per_rank=25_000, layout="aos"),
        io=IOStrategySpec(kind="tapioca", num_aggregators=48, buffer_size=8 * MIB),
        placement=PlacementSpec(strategy="topology-aware", partition_by="contiguous"),
    )


def _cell_axes(scale: float):
    """The four (machine, aggregator, partitioning) cells, in lock-step."""
    return zipped(
        axis("machine.kind", ["theta", "theta", "mira", "mira"]),
        axis(
            "machine.num_nodes",
            [
                scaled_nodes(256, scale),
                scaled_nodes(512, scale),
                scaled_nodes(512, scale, multiple=128),
                scaled_nodes(1024, scale, multiple=128),
            ],
        ),
        axis("io.num_aggregators", [48, 48, None, None]),
        axis("io.aggregators_per_pset", [None, None, 16, 16]),
        axis("placement.partition_by", ["contiguous", "contiguous", "pset", "pset"]),
    )


def placement_optimality(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Optimality gap of the greedy election vs node count (Theta + Mira).

    Greedy is globally optimal under the paper's separable objective; the
    coupled objective (injection-link sharing between co-located
    aggregators) is where it can lose, and this experiment proves by how
    much with branch-and-bound on every cell.
    """
    base = placement_optimality_scenario(scale).with_overrides(overrides)
    sweep = Sweep(_cell_axes(scale))
    sweep.reject_overrides(overrides)
    nodes_series = Series("machine nodes")
    greedy_series = Series("greedy cost (ms)")
    exact_series = Series("exact cost (ms)")
    gap_series = Series("certified gap (%)")
    cells = []
    worst_gap = 0.0
    gap_nonnegative = True
    all_proven = True
    for index, scenario in enumerate(sweep.expand(base)):
        problem, machine_nodes = problem_for_scenario(scenario)
        certificate = certify_problem(problem, machine_nodes=machine_nodes)
        greedy_cost = certificate.greedy_cost_s
        worst_gap = max(worst_gap, certificate.gap)
        gap_nonnegative &= certificate.best_cost_s <= greedy_cost * (1.0 + _RTOL)
        all_proven &= certificate.proven_optimal
        nodes_series.add(index, machine_nodes)
        greedy_series.add(index, greedy_cost * 1e3)
        exact_series.add(index, certificate.best_cost_s * 1e3)
        if certificate.proven_optimal:
            gap_series.add(index, round(certificate.gap_percent, 6))
            status = "proven"
        else:
            status = (
                f"unproven, lower bound {certificate.lower_bound_s * 1e3:.6g} ms"
            )
        cells.append(f"{scenario.machine.kind}@{machine_nodes} ({status})")
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine="Theta (Cray XC40) + Mira (IBM BG/Q)",
        x_label="cell index",
        series=[nodes_series, greedy_series, exact_series, gap_series],
        checks={
            "the best placement never costs more than greedy (gap >= 0)": (
                gap_nonnegative
            ),
            "branch-and-bound proves every cell optimal": all_proven,
        },
        paper_reference=(
            "ROADMAP item 1: model placement as an assignment problem; the "
            "paper's per-partition argmin (Section IV-B) is optimal under its "
            "separable objective, so the measured gap under injection-link "
            "sharing quantifies what independent elections leave on the table"
        ),
    )
    result.notes = (
        "Cells: " + ", ".join(cells) + "; branch-and-bound warm-started from greedy"
    )
    if base.placement.certify:
        result.optimality_gap = worst_gap
    return result


register_scenario(
    "placement_optimality",
    placement_optimality_scenario,
    "greedy vs exact placement, base Theta cell",
)
