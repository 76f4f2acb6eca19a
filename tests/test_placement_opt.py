"""Tests for the optimal-placement subsystem (repro.placement_opt)."""

import itertools
import math
from types import SimpleNamespace

import pytest

from repro.experiments.results import (
    ExperimentResult,
    Series,
    format_optimality_gap,
)
from repro.placement_opt import (
    CandidateCost,
    PartitionCandidates,
    PlacementProblem,
    assignment_cost,
    branch_and_bound,
    certify_problem,
    certify_scenario,
    greedy_choice,
    problem_for_scenario,
)
from repro.scenario.registry import get_scenario, scenario_ids
from repro.scenario.simulation import Simulation
from repro.scenario.spec import (
    IOStrategySpec,
    MachineSpec,
    PlacementSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
)
from repro.utils.rng import seeded_rng


def make_problem(spec: list[list[tuple[int, float, float]]]) -> PlacementProblem:
    """Build a problem from [(node, latency_s, transfer_s), ...] per partition."""
    partitions = []
    for index, raw in enumerate(spec):
        candidates = [
            CandidateCost(node=node, latency_s=lat, transfer_s=xfer)
            for node, lat, xfer in raw
        ]
        candidates.sort(key=lambda c: (c.base_s, c.node))
        # Hand-built problems elect the (base_s, node) minimum, position 0.
        partitions.append(
            PartitionCandidates(index=index, candidates=tuple(candidates), elected=0)
        )
    return PlacementProblem(partitions)


def random_problem(
    rng, *, max_partitions: int = 5, num_nodes: int = 5, max_pools: int = 3
):
    """A random small colliding problem.

    Each partition draws its candidates from one of up to ``max_pools``
    disjoint node pools (pool ``k`` is nodes ``k*num_nodes ..``), so the
    partitions sharing a pool may collide and the problem can split into
    several connected components.
    """
    num_partitions = int(rng.integers(2, max_partitions + 1))
    num_pools = int(rng.integers(1, max_pools + 1))
    spec = []
    for _ in range(num_partitions):
        offset = num_nodes * int(rng.integers(0, num_pools))
        count = int(rng.integers(1, num_nodes + 1))
        nodes = list(rng.permutation(num_nodes))[:count]
        spec.append(
            [
                (
                    offset + int(node),
                    float(rng.random()) * 1e-3,
                    float(rng.random()) * 1e-2,
                )
                for node in nodes
            ]
        )
    return make_problem(spec)


def single_job_tapioca_scenarios() -> list[str]:
    """Every registered scenario that certification applies to."""
    names = []
    for name in scenario_ids():
        scenario = get_scenario(name, scale=8.0)
        if scenario.multijob is None and scenario.io.kind == "tapioca":
            names.append(name)
    return names


def brute_force_optimum(problem: PlacementProblem) -> float:
    ranges = [range(len(p.candidates)) for p in problem.partitions]
    return min(
        assignment_cost(problem, choice)
        for choice in itertools.product(*ranges)
    )


class TestProblem:
    def test_greedy_is_position_zero_and_candidates_sorted(self):
        problem = make_problem(
            [[(0, 0.0, 2.0), (1, 0.0, 1.0)], [(2, 1.0, 0.0), (1, 0.0, 0.5)]]
        )
        assert greedy_choice(problem) == (0, 0)
        for part in problem.partitions:
            bases = [c.base_s for c in part.candidates]
            assert bases == sorted(bases)

    def test_assignment_cost_scales_shared_transfer_by_multiplicity(self):
        # Two partitions on the same node: each transfer term doubles.
        problem = make_problem([[(7, 0.5, 2.0)], [(7, 0.25, 3.0)]])
        cost = assignment_cost(problem, (0, 0))
        assert cost == pytest.approx(0.5 + 0.25 + 2 * (2.0 + 3.0))

    def test_assignment_cost_rejects_wrong_arity(self):
        problem = make_problem([[(0, 0.0, 1.0)]])
        with pytest.raises(Exception):
            assignment_cost(problem, (0, 0))

    @pytest.mark.parametrize("scale", (8.0, 1.0))
    @pytest.mark.parametrize("name", single_job_tapioca_scenarios())
    def test_greedy_is_the_placement_the_model_elects(self, name, scale):
        """The certificate's greedy is the analytic model's own election,
        also where the problem's latency + transfer sums break an exact
        tie of C1 + C2 differently (ablation_burst_buffer)."""
        scenario = get_scenario(name, scale=scale)
        problem, _machine_nodes = problem_for_scenario(scenario)
        elected = Simulation(scenario).estimate().details["aggregator_nodes"]
        assert list(problem.choice_nodes(greedy_choice(problem))) == elected

    def test_scenario_problem_matches_machine_and_greedy_election(self):
        scenario = get_scenario("placement_optimality", scale=8.0)
        problem, machine_nodes = problem_for_scenario(scenario)
        assert machine_nodes == scenario.machine.num_nodes
        assert problem.num_partitions == scenario.io.num_aggregators
        greedy = greedy_choice(problem)
        nodes = problem.choice_nodes(greedy)
        assert len(nodes) == problem.num_partitions
        assert assignment_cost(problem, greedy) > 0.0


class TestExactSolver:
    def test_matches_brute_force_on_randomized_problems(self):
        rng = seeded_rng(42)
        searched_split_problems = 0
        for _ in range(40):
            problem = random_problem(rng)
            solution = branch_and_bound(problem)
            assert solution.proven_optimal
            optimum = brute_force_optimum(problem)
            assert solution.cost_s == pytest.approx(optimum, rel=1e-9)
            assert solution.lower_bound_s == pytest.approx(optimum, rel=1e-9)
            if solution.components > 1 and solution.nodes_explored > 0:
                searched_split_problems += 1
        # The draw must exercise the search on decomposed problems, not
        # only the root lower-bound shortcut.
        assert searched_split_problems >= 5

    def test_never_worse_than_greedy_on_randomized_problems(self):
        rng = seeded_rng(7)
        for _ in range(40):
            problem = random_problem(rng)
            greedy_cost = assignment_cost(problem, greedy_choice(problem))
            solution = branch_and_bound(problem)
            assert solution.cost_s <= greedy_cost * (1 + 1e-12)

    def test_gap_zero_when_candidates_are_disjoint(self):
        # No shared nodes -> greedy is provably optimal; the warm start
        # meets the global lower bound, so the proof costs zero search.
        problem = make_problem(
            [
                [(0, 0.1, 1.0), (1, 0.2, 2.0)],
                [(2, 0.1, 1.0), (3, 0.2, 2.0)],
                [(4, 0.3, 0.5)],
            ]
        )
        solution = branch_and_bound(problem)
        assert solution.proven_optimal
        assert solution.nodes_explored == 0
        assert solution.components == 3
        assert solution.cost_s == pytest.approx(
            assignment_cost(problem, greedy_choice(problem))
        )

    def test_beats_greedy_when_collision_is_avoidable(self):
        # Both partitions prefer node 0, but splitting is globally cheaper:
        # colliding costs 0.1 + 2*(10+10) = 40.1, splitting costs 10 + 11.
        problem = make_problem(
            [
                [(0, 0.0, 10.0), (1, 1.0, 10.0)],
                [(0, 0.1, 10.0), (2, 1.0, 10.0)],
            ]
        )
        greedy_cost = assignment_cost(problem, greedy_choice(problem))
        solution = branch_and_bound(problem)
        assert solution.proven_optimal
        assert solution.cost_s < greedy_cost
        assert len(set(problem.choice_nodes(solution.choice))) == 2

    def test_node_limit_returns_best_effort_incumbent(self):
        problem = make_problem(
            [
                [(0, 0.0, 10.0), (1, 1.0, 10.0)],
                [(0, 0.1, 10.0), (2, 1.0, 10.0)],
            ]
        )
        solution = branch_and_bound(problem, node_limit=1)
        assert not solution.proven_optimal
        greedy_cost = assignment_cost(problem, greedy_choice(problem))
        assert solution.cost_s <= greedy_cost * (1 + 1e-12)
        assert solution.lower_bound_s <= solution.cost_s

    def test_node_limit_is_one_budget_over_all_components(self):
        # Two copies of the avoidable collision on disjoint nodes: each
        # component needs search, and the shared budget runs out in the
        # second one, which keeps greedy and contributes its root bound.
        pair = [
            [(0, 0.0, 10.0), (1, 1.0, 10.0)],
            [(0, 0.1, 10.0), (2, 1.0, 10.0)],
        ]
        shifted = [[(node + 3, lat, xfer) for node, lat, xfer in p] for p in pair]
        problem = make_problem(pair + shifted)
        full = branch_and_bound(problem)
        assert full.proven_optimal and full.components == 2
        assert full.cost_s == pytest.approx(2 * 21.0)
        limited = branch_and_bound(
            problem, node_limit=full.nodes_explored // 2 + 1
        )
        assert not limited.proven_optimal
        assert limited.nodes_explored <= full.nodes_explored // 2 + 1
        assert limited.cost_s == pytest.approx(21.0 + 40.1)
        assert limited.lower_bound_s == pytest.approx(21.0 + 20.1)

    def test_search_goes_past_the_root_shortcut_where_greedy_co_locates(self):
        # placement_optimality's Theta cell at 32 nodes: contiguous
        # partitions share boundary nodes and greedy co-locates aggregators,
        # so only the search can prove the optimum.
        problem, _ = problem_for_scenario(
            get_scenario("placement_optimality", scale=8.0)
        )
        greedy = greedy_choice(problem)
        assert len(set(problem.choice_nodes(greedy))) < problem.num_partitions
        solution = branch_and_bound(problem, warm_start=greedy)
        assert solution.proven_optimal
        assert solution.nodes_explored > 0
        assert solution.cost_s <= assignment_cost(problem, greedy) * (1 + 1e-12)

    def test_deterministic(self):
        rng = seeded_rng(3)
        problem = random_problem(rng)
        first = branch_and_bound(problem)
        second = branch_and_bound(problem)
        assert first == second


class TestCertification:
    def test_exact_method_at_or_below_node_limit(self):
        problem = make_problem(
            [[(0, 0.0, 1.0), (1, 0.5, 1.0)], [(0, 0.1, 1.0), (2, 0.5, 1.0)]]
        )
        certificate = certify_problem(problem, machine_nodes=3)
        assert certificate.proven_optimal
        assert certificate.gap >= 0.0
        assert certificate.lower_bound_s == pytest.approx(certificate.best_cost_s)
        assert math.isfinite(certificate.gap_percent)

    def test_proves_a_problem_above_128_nodes(self):
        # 80 copies of the avoidable collision on 240 nodes: every pair is
        # its own component, so the proof stays cheap at any machine size.
        spec = []
        for j in range(80):
            a, b, c = 3 * j, 3 * j + 1, 3 * j + 2
            spec.append([(a, 0.0, 10.0), (b, 1.0, 10.0)])
            spec.append([(a, 0.1, 10.0), (c, 1.0, 10.0)])
        problem = make_problem(spec)
        certificate = certify_problem(problem, machine_nodes=240)
        assert certificate.proven_optimal
        assert certificate.nodes_explored > 0
        assert certificate.greedy_cost_s == pytest.approx(80 * 40.1)
        assert certificate.best_cost_s == pytest.approx(80 * 21.0)
        assert certificate.gap == pytest.approx((40.1 - 21.0) / 40.1)

    @pytest.mark.parametrize("scale", (8.0, 1.0))
    @pytest.mark.parametrize("name", single_job_tapioca_scenarios())
    def test_every_registered_scenario_is_certified(self, name, scale):
        certificate = certify_scenario(get_scenario(name, scale=scale))
        assert certificate is not None
        assert certificate.proven_optimal

    def test_certify_scenario_skips_multijob_and_non_tapioca(self):
        multijob = SimpleNamespace(
            multijob=object(), io=SimpleNamespace(kind="tapioca")
        )
        assert certify_scenario(multijob) is None
        mpiio = Scenario(
            id="mpiio_cell",
            title="baseline",
            machine=MachineSpec(kind="theta", num_nodes=32),
            workload=WorkloadSpec(kind="hacc", particles_per_rank=25_000),
            io=IOStrategySpec(kind="mpiio"),
            placement=PlacementSpec(),
        )
        assert certify_scenario(mpiio) is None
        with pytest.raises(ScenarioError):
            problem_for_scenario(mpiio)

    def test_certify_scenario_proves_theta_and_mira_at_smoke_scale(self):
        for overrides in (
            {"machine.kind": "theta", "machine.num_nodes": 32},
            {
                "machine.kind": "mira",
                "machine.num_nodes": 128,
                "io.num_aggregators": None,
                "io.aggregators_per_pset": 16,
                "placement.partition_by": "pset",
            },
        ):
            scenario = get_scenario("placement_optimality").with_overrides(overrides)
            certificate = certify_scenario(scenario)
            assert certificate is not None
            assert certificate.proven_optimal
            assert certificate.gap >= 0.0

    def test_simulation_run_attaches_gap_only_when_asked(self):
        from repro.scenario.simulation import Simulation

        base = get_scenario("placement_optimality").with_overrides(
            {"machine.num_nodes": 32}
        )
        plain = Simulation(base).run()
        assert plain.optimality_gap is None
        certified = Simulation(
            base.with_overrides({"placement.certify": True})
        ).run()
        assert certified.optimality_gap is not None
        assert certified.optimality_gap >= 0.0
        assert "placement optimality gap" in certified.notes
        assert "(proven optimum)" in certified.notes

    def test_unproven_note_reports_the_gap_bound(self, monkeypatch):
        import functools

        from repro.placement_opt import certify

        monkeypatch.setattr(
            certify,
            "branch_and_bound",
            functools.partial(certify.branch_and_bound, node_limit=1),
        )
        result = ExperimentResult(
            experiment_id="placement_optimality",
            title="t",
            machine="m",
            x_label="x",
            series=[],
            checks={},
        )
        certificate = certify.maybe_certify_result(
            result, get_scenario("placement_optimality", scale=8.0)
        )
        assert not certificate.proven_optimal
        assert certificate.lower_bound_s <= certificate.best_cost_s
        assert certificate.max_gap_percent >= certificate.gap_percent
        assert f"unproven, gap ≤ {certificate.max_gap_percent:.3f}%" in result.notes
        assert "proven optimum" not in result.notes

    def test_certify_spec_field_is_validated_and_default_off(self):
        assert PlacementSpec().certify is False
        with pytest.raises(ValueError):
            PlacementSpec(certify="yes")


class TestExperimentFamily:
    def test_placement_optimality_runs_and_checks_pass(self):
        from repro.experiments.harness import _run_registered

        result = _run_registered("placement_optimality", scale=8.0)
        assert all(result.checks.values()), result.checks
        assert result.optimality_gap is None  # certify is off by default
        table = result.to_table().render()
        assert "certified gap (%)" in table

    def test_certify_override_lands_gap_in_result(self):
        from repro.experiments.harness import _run_registered

        result = _run_registered(
            "placement_optimality",
            scale=8.0,
            overrides={"placement.certify": True},
        )
        assert result.optimality_gap is not None
        assert result.optimality_gap >= 0.0

    def test_certify_override_annotates_other_tapioca_experiments(self):
        from repro.experiments.harness import _run_registered

        result = _run_registered(
            "ablation_pipelining", scale=8.0, overrides={"placement.certify": True}
        )
        assert result.optimality_gap is not None
        assert result.optimality_gap >= 0.0

    def test_certify_override_is_harmless_on_uncertifiable_experiments(self):
        from repro.experiments.harness import _run_registered

        result = _run_registered(
            "interference_theta_ost",
            scale=8.0,
            overrides={"placement.certify": True},
        )
        assert result.optimality_gap is None


class TestResultEnvelope:
    def _result(self, gap):
        series = Series("x")
        series.add(0, 1.0)
        result = ExperimentResult(
            experiment_id="placement_optimality",
            title="t",
            machine="m",
            x_label="x",
            series=[series],
            checks={"ok": True},
        )
        result.optimality_gap = gap
        return result

    def test_gap_omitted_from_payload_when_absent(self):
        payload = self._result(None).to_dict()
        assert "optimality_gap" not in payload
        assert ExperimentResult.from_dict(payload).optimality_gap is None

    def test_gap_round_trips_when_present(self):
        payload = self._result(0.0125).to_dict()
        assert payload["optimality_gap"] == 0.0125
        restored = ExperimentResult.from_dict(payload)
        assert restored.optimality_gap == 0.0125
        assert "Optimality gap: 1.250%" in restored.render()

    def test_old_artifacts_without_the_key_map_to_none(self):
        payload = self._result(0.5).to_dict()
        del payload["optimality_gap"]
        assert ExperimentResult.from_dict(payload).optimality_gap is None

    def test_format_optimality_gap_tolerance(self):
        assert format_optimality_gap(0.0) == "0.000% (within tolerance)"
        assert format_optimality_gap(1e-12) == "0.000% (within tolerance)"
        assert format_optimality_gap(0.0125) == "1.250%"

    def test_report_section_renders_gap_and_skips_when_absent(self):
        from repro.experiments.report import _section

        with_gap = _section(self._result(0.01))
        assert "*Placement optimality gap:* 1.000%" in with_gap
        without = _section(self._result(None))
        assert "Placement optimality gap" not in without
