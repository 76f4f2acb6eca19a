"""Optimality certificates for the paper's greedy aggregator election.

:func:`certify_scenario` builds the aggregator-node assignment problem a
single-job TAPIOCA scenario implies (the same partitions, mapping and
topology interface the analytic model uses), scores the paper's greedy
election under the coupled objective of
:mod:`repro.placement_opt.problem`, and runs
:func:`~repro.placement_opt.exact.branch_and_bound` on it, whatever the
machine size.  A proven certificate carries the exact gap (0 or a positive
percentage); one the search-node budget cannot finish carries the best
placement found and a proven lower bound, which bracket the true gap.

Certification is opportunistic and default-off: it never runs unless the
scenario carries ``placement.certify = true`` (``--set
placement.certify=true`` on the CLI), so existing artifacts stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import span as obs_span
from repro.placement_opt.exact import branch_and_bound
from repro.placement_opt.problem import (
    PlacementProblem,
    assignment_cost,
    greedy_choice,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ExperimentResult
    from repro.scenario.spec import Scenario


@dataclass(frozen=True)
class OptimalityCertificate:
    """How far from optimal the greedy election is, and how we know.

    Attributes:
        greedy_cost_s: coupled-objective value of the paper's election.
        best_cost_s: best placement found (the optimum when
            ``proven_optimal``).
        lower_bound_s: proven lower bound on the optimum (``best_cost_s``,
            up to rounding, when ``proven_optimal``).
        gap: ``(greedy - best) / greedy``, a fraction >= 0.
        proven_optimal: True when ``best_cost_s`` is a proven optimum.
        nodes_explored: branch-and-bound search nodes.
    """

    greedy_cost_s: float
    best_cost_s: float
    lower_bound_s: float
    gap: float
    proven_optimal: bool
    nodes_explored: int

    @property
    def gap_percent(self) -> float:
        return 100.0 * self.gap

    @property
    def max_gap_percent(self) -> float:
        """Largest gap the lower bound allows, ``(greedy - bound) / greedy``."""
        if self.greedy_cost_s <= 0.0:
            return 0.0
        return 100.0 * max(0.0, 1.0 - self.lower_bound_s / self.greedy_cost_s)


def certify_problem(
    problem: PlacementProblem, *, machine_nodes: int
) -> OptimalityCertificate:
    """Certify the greedy election's gap on one assignment problem."""
    greedy = greedy_choice(problem)
    greedy_cost = assignment_cost(problem, greedy)
    with obs_span(
        "placement_opt.certify",
        cat="placement_opt",
        partitions=problem.num_partitions,
        machine_nodes=machine_nodes,
    ):
        solution = branch_and_bound(problem, warm_start=greedy)
    gap = 0.0
    if greedy_cost > 0.0:
        gap = max(0.0, (greedy_cost - solution.cost_s) / greedy_cost)
    return OptimalityCertificate(
        greedy_cost_s=greedy_cost,
        best_cost_s=solution.cost_s,
        lower_bound_s=solution.lower_bound_s,
        gap=gap,
        proven_optimal=solution.proven_optimal,
        nodes_explored=solution.nodes_explored,
    )


def problem_for_scenario(scenario: "Scenario") -> tuple[PlacementProblem, int]:
    """``(problem, machine_nodes)`` for a single-job TAPIOCA scenario.

    Mirrors :func:`repro.perfmodel.tapioca.model_tapioca`'s construction —
    same context, partitions and topology interface — so the certificate
    speaks about exactly the placement the analytic model elected.
    """
    from repro.core.partitioning import build_partitions
    from repro.core.topology_iface import TopologyInterface
    from repro.perfmodel.common import build_context
    from repro.scenario.simulation import Simulation
    from repro.scenario.spec import ScenarioError
    from repro.storage.lustre import LustreModel

    if scenario.multijob is not None:
        raise ScenarioError(
            f"scenario {scenario.id!r} is multi-job; certification applies to "
            f"single-job TAPIOCA scenarios"
        )
    if scenario.io.kind != "tapioca":
        raise ScenarioError(
            f"scenario {scenario.id!r} uses {scenario.io.kind!r}; certification "
            f"applies to TAPIOCA scenarios"
        )
    resolved = Simulation(scenario).resolve()
    machine = resolved.machine
    config = resolved.config
    assert config is not None  # guarded by the io.kind check above
    base_fs = (
        resolved.filesystem if resolved.filesystem is not None else machine.filesystem()
    )
    context = build_context(
        machine,
        resolved.workload,
        ranks_per_node=scenario.machine.ranks_per_node,
        filesystem=base_fs,
        stripe=resolved.stripe if isinstance(base_fs, LustreModel) else None,
        shared_locks=config.shared_locks,
    )
    num_aggregators = config.resolve_num_aggregators(machine, context.num_ranks)
    partitions = build_partitions(
        resolved.workload,
        num_aggregators,
        machine=machine,
        mapping=context.mapping,
        partition_by=config.partition_by,
    )
    iface = TopologyInterface(machine, context.mapping)
    return PlacementProblem.from_partitions(partitions, iface), machine.num_nodes


def certify_scenario(scenario: "Scenario") -> OptimalityCertificate | None:
    """Certificate for a scenario, or ``None`` when it does not apply.

    Multi-job and non-TAPIOCA scenarios return ``None`` — certification is
    opportunistic, never an error, so it can be bolted onto any experiment.
    """
    if scenario.multijob is not None or scenario.io.kind != "tapioca":
        return None
    problem, machine_nodes = problem_for_scenario(scenario)
    return certify_problem(problem, machine_nodes=machine_nodes)


def maybe_certify_result(
    result: "ExperimentResult", scenario: "Scenario"
) -> OptimalityCertificate | None:
    """Attach a scenario's certificate to an experiment result, if it applies.

    Sets ``result.optimality_gap`` and appends a human-readable note; a
    scenario that cannot be certified leaves the result untouched.
    """
    certificate = certify_scenario(scenario)
    if certificate is None:
        return None
    result.optimality_gap = certificate.gap
    qualifier = (
        "proven optimum"
        if certificate.proven_optimal
        else f"unproven, gap ≤ {certificate.max_gap_percent:.3f}%"
    )
    note = f"placement optimality gap {certificate.gap_percent:.3f}% ({qualifier})"
    result.notes = f"{result.notes}; {note}" if result.notes else note
    return certificate
