"""Tests for the unified :func:`repro.core.api.evaluate` entry point."""

import json

import pytest

from repro.core.api import Evaluation, evaluate
from repro.experiments.results import ExperimentResult
from repro.experiments.store import ArtifactStore
from repro.scenario.registry import get_scenario
from repro.scenario.spec import Scenario, ScenarioError

SCALE = 16.0


class TestEvaluateDispatch:
    def test_experiment_id(self):
        evaluation = evaluate("fig07", scale=SCALE)
        assert isinstance(evaluation, Evaluation)
        assert evaluation.source == "experiment"
        assert evaluation.result.experiment_id == "fig07"
        assert not evaluation.cached
        assert evaluation.key  # the artifact cache key

    def test_registered_scenario_name(self):
        evaluation = evaluate("fig08", scale=SCALE)
        # "fig08" is an experiment id first: the registry wins.
        assert evaluation.source == "experiment"

    def test_scenario_instance(self):
        scenario = get_scenario("fig08", scale=SCALE)
        evaluation = evaluate(scenario)
        assert evaluation.source == "scenario"
        assert evaluation.scenario == scenario
        assert evaluation.key == scenario.content_hash()
        assert evaluation.result.all_checks_pass()

    def test_scenario_payload_dict(self):
        payload = get_scenario("fig08", scale=SCALE).to_dict()
        evaluation = evaluate(payload)
        assert evaluation.source == "scenario"
        assert evaluation.result.experiment_id

    def test_unknown_name_has_hint(self):
        with pytest.raises(KeyError, match="fig08"):
            evaluate("fig8", scale=SCALE)

    def test_overrides_apply(self):
        scenario = get_scenario("fig08", scale=SCALE)
        evaluation = evaluate(scenario, overrides={"io.buffer_size": 4 * 1024 * 1024})
        assert evaluation.scenario.io.buffer_size == 4 * 1024 * 1024
        assert evaluation.key != scenario.content_hash()


class TestScenarioHashCache:
    def test_warm_hit_skips_simulation(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        scenario = get_scenario("fig08", scale=SCALE)
        cold = evaluate(scenario, store=store)
        assert not cold.cached

        # A re-evaluation must not touch the simulation layer at all.
        from repro.scenario import simulation

        def boom(*args, **kwargs):
            raise AssertionError("warm hit re-simulated")

        monkeypatch.setattr(simulation.Simulation, "run", boom)
        warm = evaluate(scenario, store=store)
        assert warm.cached
        assert warm.key == cold.key
        assert warm.result == cold.result

    def test_use_cache_false_re_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = get_scenario("fig08", scale=SCALE)
        evaluate(scenario, store=store)
        fresh = evaluate(scenario, store=store, use_cache=False)
        assert not fresh.cached

    def test_content_hash_is_stable_and_sensitive(self):
        scenario = get_scenario("fig08", scale=SCALE)
        assert scenario.content_hash() == scenario.content_hash()
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.content_hash() == scenario.content_hash()
        changed = scenario.with_overrides({"io.buffer_size": 2 * 1024 * 1024})
        assert changed.content_hash() != scenario.content_hash()

    def test_cache_is_shared_across_store_handles(self, tmp_path):
        scenario = get_scenario("fig08", scale=SCALE)
        evaluate(scenario, store=ArtifactStore(tmp_path))
        warm = evaluate(scenario, store=ArtifactStore(tmp_path))
        assert warm.cached


class TestObjectiveMode:
    def test_objective_by_name(self):
        scenario = get_scenario("fig08", scale=SCALE)
        evaluation = evaluate(scenario, objective="bandwidth")
        assert evaluation.value > 0
        assert evaluation.result is None

    def test_objective_matches_direct_compute(self):
        from repro.autotune.objectives import get_objective

        scenario = get_scenario("fig08", scale=SCALE)
        objective = get_objective("bandwidth")
        assert evaluate(scenario, objective=objective).value == pytest.approx(
            objective.compute(scenario)
        )

    def test_objective_evaluate_routes_through_api(self):
        from repro.autotune.objectives import get_objective

        scenario = get_scenario("fig08", scale=SCALE)
        objective = get_objective("time")
        assert objective.evaluate(scenario) == pytest.approx(
            evaluate(scenario, objective="time").value
        )

    def test_objective_rejects_experiment_ids(self):
        with pytest.raises(ValueError, match="experiment"):
            evaluate("fig08", scale=SCALE, objective="bandwidth")

    def test_wrong_scenario_kind_raises(self):
        scenario = get_scenario("fig08", scale=SCALE)
        with pytest.raises(ScenarioError, match="multi-job"):
            evaluate(scenario, objective="slowdown")


class TestCompatibilityShims:
    def test_result_methods_round_trip(self):
        result = evaluate("fig07", scale=SCALE).result
        assert ExperimentResult.from_dict(result.to_dict()) == result
        assert ExperimentResult.from_json(result.to_json()) == result
        payload = json.loads(result.to_json())
        assert payload["experiment_id"] == "fig07"

    def test_store_module_aliases_are_removed(self):
        """Serialisation lives on ExperimentResult only."""
        import repro.experiments
        from repro.experiments import store

        for name in ("result_to_dict", "result_from_dict", "to_json", "from_json"):
            assert not hasattr(store, name)
            assert not hasattr(repro.experiments, name)
