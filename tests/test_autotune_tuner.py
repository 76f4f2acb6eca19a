"""Tests for objectives, the whole-space tuner, its certificate, and point caching."""

import json

import pytest

from repro.autotune import (
    MAX_SPACE_POINTS,
    Categorical,
    SearchSpace,
    TuningTrace,
    as_tunable,
    default_objective,
    get_objective,
    rescale_scenario,
    suggest_space,
    tune,
)
from repro.autotune.space import AutotuneError
from repro.autotune.trace import TRACE_SCHEMA
from repro.experiments import runner
from repro.experiments.store import ArtifactStore
from repro.scenario.registry import get_scenario
from repro.scenario.spec import (
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    MultiJobSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    WorkloadSpec,
)
from repro.utils.units import MB, MIB


def theta_base(num_nodes: int = 32) -> Scenario:
    """A small untuned Theta MPI-IO scenario (the rediscovery shape)."""
    return Scenario(
        id="tune-test",
        machine=MachineSpec(kind="theta", num_nodes=num_nodes),
        workload=WorkloadSpec(kind="ior", bytes_per_rank=2 * MB),
        io=IOStrategySpec(
            kind="mpiio", aggregators_per_ost=1, buffer_size=1 * MIB, shared_locks=False
        ),
        storage=StorageSpec(kind="lustre", stripe_count=1, stripe_size=1 * MIB),
    )


def locks_space() -> SearchSpace:
    return SearchSpace(
        Categorical("storage.stripe_count", (1, 8, 48)),
        Categorical("io.shared_locks", (False, True)),
    )


def multijob_base(num_nodes: int = 8, num_jobs: int = 2) -> Scenario:
    def job(name: str, ost_start: int) -> JobScenarioSpec:
        return JobScenarioSpec(
            name=name,
            num_nodes=num_nodes,
            workload=WorkloadSpec(kind="ior", bytes_per_rank=4 * MB),
            io=IOStrategySpec(kind="tapioca", num_aggregators=16, buffer_size=8 * MIB),
            storage=StorageSpec(
                kind="lustre", stripe_count=2, stripe_size=8 * MIB, ost_start=ost_start
            ),
        )

    return Scenario(
        id="tune-multijob",
        machine=MachineSpec(kind="theta", num_nodes=num_jobs * num_nodes),
        multijob=MultiJobSpec(
            jobs=tuple(job(chr(ord("A") + index), 0) for index in range(num_jobs))
        ),
    )


class TestObjectives:
    def test_bandwidth_and_time_agree_on_single_job(self):
        scenario = theta_base()
        bandwidth = get_objective("bandwidth").evaluate(scenario)
        elapsed = get_objective("time").evaluate(scenario)
        assert bandwidth > 0 and elapsed > 0
        total_gb = scenario.machine.num_nodes * 16 * 2 * MB / 1e9
        assert bandwidth == pytest.approx(total_gb / elapsed, rel=1e-6)

    def test_slowdown_needs_a_multijob_scenario(self):
        with pytest.raises(ScenarioError, match="multi-job"):
            get_objective("slowdown").evaluate(theta_base())
        assert get_objective("slowdown").evaluate(multijob_base()) >= 1.0

    def test_single_job_objectives_reject_multijob(self):
        with pytest.raises(ScenarioError, match="single-job"):
            get_objective("bandwidth").evaluate(multijob_base())

    def test_unknown_objective_has_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_objective("bandwith")

    def test_default_objective_follows_scenario_kind(self):
        assert default_objective(theta_base()).name == "bandwidth"
        assert default_objective(multijob_base()).name == "slowdown"

    def test_better_respects_direction(self):
        assert get_objective("bandwidth").better(2.0, 1.0)
        assert get_objective("time").better(1.0, 2.0)
        assert get_objective("time").better(5.0, None)


def oracle(base: Scenario, space: SearchSpace, objective_name: str):
    """Independent optimum: every grid point through ``Objective.compute``."""
    objective = get_objective(objective_name)
    values = [objective.compute(space.apply(base, point)) for point in space.grid()]
    pick = max if objective.direction == "max" else min
    best = pick(values)
    return values, best, list(space.grid())[values.index(best)]


class TestCertificate:
    @pytest.mark.parametrize("name", ["fig08", "tuning_interference_aware"])
    def test_optimum_equals_the_exhaustive_oracle(self, name):
        base = as_tunable(get_scenario(name, scale=8.0))
        space = suggest_space(base)
        trace = tune(base, space)
        values, best, best_point = oracle(base, space, trace.objective)
        assert [point.value for point in trace.points] == values
        assert trace.best_value == best
        assert trace.best_overrides == best_point
        assert len(trace.points) == space.size()

    def test_points_follow_grid_order_with_gaps_to_the_optimum(self):
        space = locks_space()
        trace = tune(theta_base(), space)
        assert [point.overrides for point in trace.points] == list(space.grid())
        assert [point.index for point in trace.points] == list(range(6))
        best = trace.best_point()
        assert best.gap == 0.0
        for point in trace.points:
            assert point.gap == (best.value - point.value) / best.value
        assert trace.best_overrides == {
            "storage.stripe_count": 48,
            "io.shared_locks": True,
        }

    def test_minimised_objective_gaps_are_non_negative(self):
        trace = tune(theta_base(), locks_space(), "time")
        best = trace.best_point()
        assert best.value == min(point.value for point in trace.points)
        assert all(point.gap >= 0.0 for point in trace.points)
        assert trace.best_overrides["storage.stripe_count"] == 48

    def test_table_lists_the_ten_best_points(self):
        space = SearchSpace(
            Categorical("storage.stripe_count", (1, 4, 8, 16, 48)),
            Categorical("io.shared_locks", (False, True)),
            Categorical("io.aggregators_per_ost", (1, 2)),
        )
        trace = tune(theta_base(), space)
        table = trace.to_table()
        assert table.headers[:3] == ["grid #", "bandwidth", "gap %"]
        assert table.headers[3:] == list(space.fields())
        assert len(table.rows) == 10
        assert table.rows[0][0] == str(trace.best_point().index)
        gaps = [float(row[2]) for row in table.rows]
        assert gaps[0] == 0.0 and gaps == sorted(gaps)

    def test_ties_resolve_to_the_first_point_in_grid_order(self):
        # The title is not read by the model, so each stripe count scores twice.
        space = SearchSpace(
            Categorical("storage.stripe_count", (1, 48)),
            Categorical("title", ("a", "b")),
        )
        trace = tune(theta_base(), space)
        optima = [point for point in trace.points if point.gap == 0.0]
        assert len(optima) == 2
        assert trace.best_point() is optima[0]
        assert trace.best_overrides == optima[0].overrides
        assert trace.best_overrides["storage.stripe_count"] == 48

    def test_space_with_no_valid_point_has_no_optimum(self):
        # Both stripe counts exceed Theta's 56 OSTs.
        trace = tune(theta_base(), SearchSpace(Categorical("storage.stripe_count", (64, 100))))
        assert trace.invalid_points() == 2
        assert trace.best_point() is None
        assert trace.best_value is None
        assert trace.best_overrides == {}
        assert all(point.gap is None for point in trace.points)
        assert "no valid point in the space" in trace.summary()
        assert trace.to_table().rows == []

    def test_summary_reports_counts_and_the_proven_optimum(self):
        trace = tune(theta_base(), locks_space())
        lines = trace.summary().splitlines()
        assert lines[0].startswith("tuned tune-test over all 6 points")
        assert "(objective: bandwidth [max])" in lines[0]
        assert "6 points: 6 evaluated, 0 cache hits, 0 invalid" in lines[1]
        assert lines[2] == f"  proven optimum bandwidth: {trace.best_value:.4g}"
        assert lines[3:] == [
            "    io.shared_locks = True",
            "    storage.stripe_count = 48",
        ]

    def test_payload_is_json_and_carries_the_optimum(self):
        trace = tune(theta_base(), locks_space())
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["best_value"] == trace.best_value
        assert payload["best_overrides"] == trace.best_overrides
        assert "strategy" not in payload and "budget" not in payload
        assert TuningTrace.from_dict(payload).points == trace.points


class TestTuneDriver:
    def test_invalid_candidates_are_recorded_not_fatal(self):
        # stripe_count 64 exceeds Theta's 56 OSTs: resolution-time rejection.
        space = SearchSpace(Categorical("storage.stripe_count", (8, 64)))
        trace = tune(theta_base(), space)
        assert trace.invalid_points() == 1
        invalid = [point for point in trace.points if point.error][0]
        assert "stripe_count" in invalid.error
        assert invalid.gap is None
        assert trace.best_overrides["storage.stripe_count"] == 8

    def test_typoed_domain_fails_fast_with_hint(self):
        space = SearchSpace(Categorical("storage.stripe_cont", (8,)))
        with pytest.raises(ScenarioError, match="did you mean"):
            tune(theta_base(), space)

    def test_objective_kind_mismatch_is_rejected(self):
        with pytest.raises(ScenarioError, match="multi-job"):
            tune(theta_base(), locks_space(), "slowdown")

    def test_parallel_evaluation_matches_sequential(self):
        base = as_tunable(get_scenario("fig08", scale=8.0))
        space = suggest_space(base)
        sequential = tune(base, space, jobs=1)
        parallel = tune(base, space, jobs=2)
        assert [p.value for p in sequential.points] == [
            p.value for p in parallel.points
        ]
        assert [p.gap for p in sequential.points] == [p.gap for p in parallel.points]

    def test_oversized_space_is_rejected_before_any_point(self, monkeypatch):
        base = multijob_base(num_nodes=4, num_jobs=8)
        space = suggest_space(base)
        assert space.size() == 3 * 4**8 == 196_608
        evaluated = []
        monkeypatch.setattr(
            runner, "evaluate_candidates", lambda *args, **kw: evaluated.append(args)
        )
        monkeypatch.setattr(
            SearchSpace, "apply", lambda *args: evaluated.append(args)
        )
        with pytest.raises(AutotuneError) as excinfo:
            tune(base, space)
        message = str(excinfo.value)
        assert "196,608 points" in message
        assert f"{MAX_SPACE_POINTS:,}" in message
        assert "4x per Lustre job" in message
        assert evaluated == []

    def test_space_at_the_limit_is_evaluated(self, monkeypatch):
        monkeypatch.setattr("repro.autotune.tuner.MAX_SPACE_POINTS", 6)
        assert len(tune(theta_base(), locks_space()).points) == 6
        monkeypatch.setattr("repro.autotune.tuner.MAX_SPACE_POINTS", 5)
        with pytest.raises(AutotuneError, match="6 points"):
            tune(theta_base(), locks_space())

    def test_candidates_are_hashed_only_with_a_store(self, monkeypatch, tmp_path):
        hashed = []
        original = Scenario.content_hash

        def counting(self):
            hashed.append(self.id)
            return original(self)

        monkeypatch.setattr(Scenario, "content_hash", counting)
        tune(theta_base(), locks_space())
        assert hashed == []
        tune(theta_base(), locks_space(), store=ArtifactStore(tmp_path))
        assert len(hashed) >= 6

    def test_name_labels_the_trace_and_its_store_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        trace = tune(theta_base(), locks_space(), store=store, name="locks")
        assert trace.target == "locks"
        assert store.tuning_trace_targets() == ["locks"]

    def test_resumed_run_keeps_invalid_points_invalid(self, tmp_path):
        store = ArtifactStore(tmp_path)
        space = SearchSpace(Categorical("storage.stripe_count", (8, 64)))
        first = tune(theta_base(), space, store=store)
        resumed = tune(theta_base(), space, store=store)
        # stripe_count 64 is rejected at resolution time, so the store caches
        # the rejection like a value and the second run re-evaluates nothing.
        assert (resumed.cache_hits(), resumed.evaluations()) == (2, 0)
        assert resumed.invalid_points() == 1
        assert resumed.best_value == first.best_value
        assert [p.error for p in resumed.points] == [p.error for p in first.points]

    def test_point_cache_serves_every_point_on_a_second_run(self, tmp_path):
        store = ArtifactStore(tmp_path)
        space = locks_space()
        first = tune(theta_base(), space, store=store)
        assert first.cache_hits() == 0 and first.evaluations() == 6
        resumed = tune(theta_base(), space, store=store)
        assert resumed.cache_hits() == 6 and resumed.evaluations() == 0
        assert [p.value for p in resumed.points] == [p.value for p in first.points]

    def test_cache_is_shared_across_overlapping_spaces(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tune(theta_base(), locks_space(), store=store)
        narrower = SearchSpace(Categorical("storage.stripe_count", (8, 48)))
        fixed = theta_base().with_overrides({"io.shared_locks": True})
        assert tune(fixed, narrower, store=store).cache_hits() == 2

    def test_trace_round_trips_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        trace = tune(theta_base(), locks_space(), store=store)
        assert store.tuning_trace_targets() == ["tune-test"]
        payload = store.load_tuning_trace("tune-test")
        assert payload["schema"] == TRACE_SCHEMA
        loaded = TuningTrace.from_dict(payload)
        assert loaded.best_value == trace.best_value
        assert loaded.best_overrides == trace.best_overrides
        assert loaded.points == trace.points

    def test_trace_of_another_schema_is_refused(self):
        payload = tune(theta_base(), locks_space()).to_dict()
        payload["schema"] = 1
        with pytest.raises(ValueError, match="schema 1, expected 2"):
            TuningTrace.from_dict(payload)

    def test_trace_artifacts_do_not_pollute_experiment_ids(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tune(theta_base(), locks_space(), store=store)
        assert store.experiment_ids() == []


class TestRescale:
    def test_single_job_rescale_preserves_granularity(self):
        scenario = theta_base(num_nodes=64)
        assert rescale_scenario(scenario, 8.0).machine.num_nodes == 8
        mira = Scenario(
            id="m", machine=MachineSpec(kind="mira", num_nodes=512, pset_size=128)
        )
        assert rescale_scenario(mira, 2.0).machine.num_nodes == 256
        assert rescale_scenario(mira, 16.0).machine.num_nodes == 128  # pset floor

    def test_multijob_rescale_keeps_machine_hosting_all_jobs(self):
        scaled = rescale_scenario(multijob_base(num_nodes=32), 4.0)
        job_nodes = [job.num_nodes for job in scaled.multijob.jobs]
        assert job_nodes == [8, 8]
        assert scaled.machine.num_nodes >= sum(job_nodes)

    def test_identity_rescale_returns_the_same_scenario(self):
        scenario = theta_base()
        assert rescale_scenario(scenario, 1.0) is scenario
