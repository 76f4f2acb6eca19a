"""Tests for the registered autotuning validation experiments."""

import pytest

from repro.autotune import TuneTarget, Tuner, theta_mpiio_space
from repro.experiments.autotuning import (
    TUNING_SEED,
    tuning_interference_aware,
    tuning_interference_scenario,
    tuning_theta_rediscovery,
    tuning_theta_scenario,
)
from repro.experiments.harness import EXPERIMENTS
from repro.scenario.registry import get_scenario
from repro.scenario.spec import ScenarioError
from repro.utils.units import MIB

#: Smoke scale used throughout the suite.
TEST_SCALE = 8.0


class TestRegistration:
    def test_experiments_are_registered(self):
        assert "tuning_theta_rediscovery" in EXPERIMENTS
        assert "tuning_interference_aware" in EXPERIMENTS

    def test_base_scenarios_are_registered(self):
        rediscovery = get_scenario("tuning_theta_rediscovery", scale=TEST_SCALE)
        assert rediscovery.io.kind == "mpiio"
        assert rediscovery.storage.stripe_count == 1  # the untuned start
        contended = get_scenario("tuning_interference_aware", scale=TEST_SCALE)
        assert len(contended.multijob.jobs) == 2


class TestThetaRediscovery:
    def test_starts_from_the_untuned_baseline(self):
        scenario = tuning_theta_scenario(TEST_SCALE)
        assert scenario.storage.stripe_count == 1
        assert scenario.storage.stripe_size == 1 * MIB
        assert scenario.io.aggregators_per_ost == 1
        assert scenario.io.shared_locks is False

    def test_rediscovers_the_paper_preset_within_tolerance(self):
        result = tuning_theta_rediscovery(scale=TEST_SCALE)
        assert result.all_checks_pass(), result.failed_checks()
        # Both strategies' best-so-far curves are part of the result.
        labels = [series.label for series in result.series]
        assert any("random" in label for label in labels)
        assert any("hill-climb" in label for label in labels)

    def test_result_is_deterministic(self):
        first = tuning_theta_rediscovery(scale=TEST_SCALE)
        second = tuning_theta_rediscovery(scale=TEST_SCALE)
        assert [
            (series.label, series.points) for series in first.series
        ] == [(series.label, series.points) for series in second.series]
        assert first.notes == second.notes

    def test_random_search_evaluates_every_point(self):
        """A budget-24 random search over the preset space hits no invalid point."""
        tuner = Tuner(
            TuneTarget(
                name="tuning_theta_rediscovery",
                builder=tuning_theta_scenario,
                scale=TEST_SCALE,
            ),
            theta_mpiio_space(),
            "bandwidth",
            seed=TUNING_SEED,
        )
        trace = tuner.tune("random", 24)
        assert len(trace.points) == 24
        assert trace.invalid_points() == 0
        assert trace.best_value is not None and trace.best_value > 0

    def test_overriding_a_searched_field_is_rejected(self):
        with pytest.raises(ValueError, match="searched field"):
            tuning_theta_rediscovery(
                scale=TEST_SCALE, overrides={"storage.stripe_count": 8}
            )

    def test_unsearched_override_flows_into_the_tune(self):
        stock = tuning_theta_rediscovery(scale=TEST_SCALE)
        modified = tuning_theta_rediscovery(
            scale=TEST_SCALE, overrides={"workload.bytes_per_rank": 4 * MIB}
        )
        assert stock.series[0].points != modified.series[0].points

    def test_typoed_override_has_did_you_mean(self):
        with pytest.raises(ScenarioError, match="did you mean"):
            tuning_theta_rediscovery(
                scale=TEST_SCALE, overrides={"workload.bytes_per_rnk": 4 * MIB}
            )


class TestInterferenceAware:
    def test_base_scenario_shares_the_ost_set(self):
        scenario = tuning_interference_scenario(TEST_SCALE)
        anchors = {job.storage.ost_start for job in scenario.multijob.jobs}
        assert anchors == {0}

    def test_contention_shifts_the_optimum(self):
        result = tuning_interference_aware(scale=TEST_SCALE)
        assert result.all_checks_pass(), result.failed_checks()
        solo = result.series_by_label("solo: worst slowdown per anchor")
        contended = result.series_by_label("contended: worst slowdown per anchor")
        # Solo: flat at ~1.0; contended: sharing anchor 0 hurts, moving helps.
        assert max(p.bandwidth_gbps for p in solo.points) <= 1.01
        assert contended.at(0) > contended.at(2)

    def test_searched_anchor_override_is_rejected(self):
        with pytest.raises(ValueError, match="searched field"):
            tuning_interference_aware(
                scale=TEST_SCALE,
                overrides={"multijob.jobs.0.storage.ost_start": 4},
            )
