"""Tests for the registered autotuning validation experiments."""

import pytest

from repro.autotune import theta_mpiio_space, tune
from repro.experiments.autotuning import (
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
        assert "the expert preset is a point of the evaluated space" in result.checks
        assert "over all 200 points" in result.notes
        # Best bandwidth per stripe count, with and without lock sharing.
        shared = result.series_by_label("shared locks: best GBps per stripe count")
        unshared = result.series_by_label("unshared locks: best GBps per stripe count")
        assert [point.x for point in shared.points] == [1, 4, 8, 16, 48]
        assert all(
            s.bandwidth_gbps >= u.bandwidth_gbps
            for s, u in zip(shared.points, unshared.points)
        )

    def test_notes_report_the_gaps_of_the_preset_and_the_baseline(self):
        notes = tuning_theta_rediscovery(scale=TEST_SCALE).notes
        assert notes.startswith("Proven optimum ")
        assert "expert preset " in notes and "untuned baseline " in notes
        assert notes.count("below the optimum") == 2

    def test_result_is_deterministic(self):
        first = tuning_theta_rediscovery(scale=TEST_SCALE)
        second = tuning_theta_rediscovery(scale=TEST_SCALE)
        assert [
            (series.label, series.points) for series in first.series
        ] == [(series.label, series.points) for series in second.series]
        assert first.notes == second.notes

    def test_every_point_of_the_space_is_valid(self):
        trace = tune(tuning_theta_scenario(TEST_SCALE), theta_mpiio_space(), "bandwidth")
        assert len(trace.points) == 200
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
