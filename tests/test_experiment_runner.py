"""Tests for the parallel experiment runner (store integration, fail-fast)."""

import pytest

from repro.experiments.harness import EXPERIMENTS
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import run_experiments
from repro.experiments.store import ArtifactStore

#: Two quick registry experiments used throughout; scale 8 keeps them fast
#: while every qualitative check still passes (see tests/test_experiments.py).
QUICK_IDS = ["table1", "fig10"]
TEST_SCALE = 8.0


def _stub_experiment(passing: bool):
    def build(scale: float) -> ExperimentResult:
        series = Series("stub")
        series.add(1.0, 1.0)
        return ExperimentResult(
            experiment_id="stub",
            title="stub",
            machine="nowhere",
            x_label="x",
            series=[series],
            checks={"ok": passing},
        )

    return build


class TestValidationAndOrdering:
    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99"], scale=TEST_SCALE)

    def test_outcomes_follow_requested_order(self):
        report = run_experiments(QUICK_IDS, scale=TEST_SCALE)
        assert [o.experiment_id for o in report.outcomes] == QUICK_IDS
        assert report.executed() == QUICK_IDS
        assert report.cache_hits() == []

    def test_duplicate_ids_run_once(self):
        report = run_experiments(["table1", "table1"], scale=TEST_SCALE)
        assert [o.experiment_id for o in report.outcomes] == ["table1"]
        assert report.executed() == ["table1"]

    def test_results_map_ids_in_request_order(self):
        results = run_experiments(QUICK_IDS, scale=TEST_SCALE, jobs=1).results()
        assert list(results) == QUICK_IDS
        for result in results.values():
            assert isinstance(result, ExperimentResult)


class TestParallelEqualsSequential:
    def test_parallel_and_sequential_results_match(self):
        sequential = run_experiments(QUICK_IDS, scale=TEST_SCALE, jobs=1)
        parallel = run_experiments(QUICK_IDS, scale=TEST_SCALE, jobs=2)
        seq_results = sequential.results()
        par_results = parallel.results()
        assert list(seq_results) == list(par_results) == QUICK_IDS
        for experiment_id in QUICK_IDS:
            assert (
                par_results[experiment_id].to_dict()
                == seq_results[experiment_id].to_dict()
            )


class TestStoreIntegration:
    def test_artifacts_and_manifest_written(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiments(QUICK_IDS, scale=TEST_SCALE, store=store)
        assert sorted(store.experiment_ids()) == sorted(QUICK_IDS)
        manifest = store.read_manifest()
        assert set(manifest["experiments"]) == set(QUICK_IDS)
        for entry in manifest["experiments"].values():
            assert entry["scale"] == TEST_SCALE
            assert entry["wall_time_s"] > 0

    def test_second_run_is_all_cache_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_experiments(QUICK_IDS, scale=TEST_SCALE, store=store)
        second = run_experiments(QUICK_IDS, scale=TEST_SCALE, store=store)
        assert first.cache_hits() == []
        assert second.cache_hits() == QUICK_IDS
        assert second.executed() == []
        assert {
            eid: res.to_dict() for eid, res in second.results().items()
        } == {eid: res.to_dict() for eid, res in first.results().items()}

    def test_no_cache_forces_rerun(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiments(QUICK_IDS, scale=TEST_SCALE, store=store)
        rerun = run_experiments(
            QUICK_IDS, scale=TEST_SCALE, store=store, use_cache=False
        )
        assert rerun.cache_hits() == []
        assert rerun.executed() == QUICK_IDS

    def test_different_scale_misses_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiments(QUICK_IDS, scale=TEST_SCALE, store=store)
        other = run_experiments(QUICK_IDS, scale=TEST_SCALE * 2, store=store)
        assert other.cache_hits() == []


class TestFailFast:
    def test_fail_fast_stops_after_failure(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub_fail", _stub_experiment(False))
        report = run_experiments(
            ["stub_fail", "table1"], scale=TEST_SCALE, jobs=1, fail_fast=True
        )
        assert report.failed() == ["stub_fail"]
        assert not report.all_checks_pass()
        # table1 was never scheduled.
        assert [o.experiment_id for o in report.outcomes] == ["stub_fail"]

    def test_without_fail_fast_everything_runs(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub_fail", _stub_experiment(False))
        report = run_experiments(
            ["stub_fail", "table1"], scale=TEST_SCALE, jobs=1, fail_fast=False
        )
        assert [o.experiment_id for o in report.outcomes] == ["stub_fail", "table1"]
        assert report.failed() == ["stub_fail"]

    def test_fail_fast_honours_cached_failure(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub_fail", _stub_experiment(False))
        store = ArtifactStore(tmp_path)
        stub = EXPERIMENTS["stub_fail"](TEST_SCALE)
        store.save(stub, scale=TEST_SCALE, wall_time_s=0.0)
        # stub's artifact id is "stub", so request it under that id.
        monkeypatch.setitem(EXPERIMENTS, "stub", _stub_experiment(False))
        report = run_experiments(
            ["stub", "table1"], scale=TEST_SCALE, store=store, fail_fast=True
        )
        assert report.cache_hits() == ["stub"]
        assert [o.experiment_id for o in report.outcomes] == ["stub"]


class TestProgressCallback:
    def test_on_outcome_sees_every_experiment(self, tmp_path):
        seen = []
        store = ArtifactStore(tmp_path)
        run_experiments(
            QUICK_IDS,
            scale=TEST_SCALE,
            store=store,
            on_outcome=lambda outcome: seen.append((outcome.experiment_id, outcome.cached)),
        )
        run_experiments(
            QUICK_IDS,
            scale=TEST_SCALE,
            store=store,
            on_outcome=lambda outcome: seen.append((outcome.experiment_id, outcome.cached)),
        )
        assert sorted(seen[:2]) == [("fig10", False), ("table1", False)]
        assert sorted(seen[2:]) == [("fig10", True), ("table1", True)]
