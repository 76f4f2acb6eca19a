"""Tests for the JSON artifact store (round-trip, cache, manifest)."""

import json

import pytest

from repro.experiments.results import ExperimentResult, Series
from repro.experiments.store import ArtifactStore, cache_key


def make_result(experiment_id: str = "demo", *, passing: bool = True) -> ExperimentResult:
    series_a = Series("TAPIOCA")
    series_a.add(1.0, 10.0)
    series_a.add(2.0, 12.5)
    series_b = Series("MPI I/O")
    series_b.add(1.0, 4.0)
    series_b.add(2.0, 5.0)
    return ExperimentResult(
        experiment_id=experiment_id,
        title="a demo experiment",
        machine="theta",
        x_label="MB per rank",
        series=[series_a, series_b],
        checks={"tapioca wins": True, "gap grows": passing},
        paper_reference="paper says 2-3x",
        notes="synthetic fixture",
    )


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = make_result(passing=False)
        restored = ExperimentResult.from_json(original.to_json())
        assert restored == original

    def test_dict_round_trip(self):
        original = make_result()
        assert ExperimentResult.from_dict(original.to_dict()) == original

    def test_json_is_plain_and_stable(self):
        payload = json.loads(make_result().to_json())
        assert payload["experiment_id"] == "demo"
        assert payload["series"][0]["label"] == "TAPIOCA"
        assert payload["series"][0]["points"][0] == {"x": 1.0, "bandwidth_gbps": 10.0}
        assert payload["checks"] == {"tapioca wins": True, "gap grows": True}

    def test_optional_fields_default(self):
        payload = make_result().to_dict()
        del payload["paper_reference"]
        del payload["notes"]
        restored = ExperimentResult.from_dict(payload)
        assert restored.paper_reference == "" and restored.notes == ""


class TestCacheKey:
    def test_distinct_per_id_and_scale(self):
        keys = {
            cache_key("fig07", 1.0),
            cache_key("fig07", 8.0),
            cache_key("fig08", 1.0),
        }
        assert len(keys) == 3

    def test_deterministic(self):
        assert cache_key("fig07", 8) == cache_key("fig07", 8.0)


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        result = make_result()
        path = store.save(result, scale=8.0, wall_time_s=0.25)
        assert path.is_file()
        assert store.load("demo") == result
        envelope = store.load_envelope("demo")
        assert envelope["scale"] == 8.0
        assert envelope["wall_time_s"] == 0.25

    def test_cache_hit_and_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has("demo", 8.0)
        assert store.load_cached("demo", 8.0) is None
        store.save(make_result(), scale=8.0, wall_time_s=0.1)
        assert store.has("demo", 8.0)
        assert store.load_cached("demo", 8.0) == make_result()
        # A different scale is a miss: the artifact must not be reused.
        assert not store.has("demo", 1.0)
        assert store.load_cached("demo", 1.0) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(make_result(), scale=8.0, wall_time_s=0.1)
        store.artifact_path("demo").write_text("{not json", encoding="utf-8")
        assert not store.has("demo", 8.0)

    def test_corrupt_artifact_does_not_break_later_saves(self, tmp_path):
        store = ArtifactStore(tmp_path)
        # A truncated file from an interrupted writer, plus a foreign JSON.
        (tmp_path / "fig99.json").write_text("{trunc", encoding="utf-8")
        (tmp_path / "foreign.json").write_text('{"schema": 99}', encoding="utf-8")
        store.save(make_result("exp_a"), scale=8.0, wall_time_s=0.1)
        manifest = store.read_manifest()
        assert set(manifest["experiments"]) == {"exp_a"}

    def test_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.load("demo")
        with pytest.raises(FileNotFoundError):
            store.read_manifest()

    def test_manifest_tracks_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(make_result("exp_a"), scale=8.0, wall_time_s=0.1)
        store.save(make_result("exp_b", passing=False), scale=8.0, wall_time_s=0.2)
        manifest = store.read_manifest()
        assert set(manifest["experiments"]) == {"exp_a", "exp_b"}
        assert manifest["experiments"]["exp_a"]["all_checks_pass"] is True
        assert manifest["experiments"]["exp_b"]["all_checks_pass"] is False
        assert manifest["experiments"]["exp_b"]["checks"]["gap grows"] is False
        assert manifest["experiments"]["exp_a"]["wall_time_s"] == 0.1
        # The repo is a git checkout, so the manifest records the SHA.
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40

    def test_experiment_ids_and_scales(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.experiment_ids() == []
        store.save(make_result("exp_b"), scale=4.0, wall_time_s=0.1)
        store.save(make_result("exp_a"), scale=8.0, wall_time_s=0.1)
        assert store.experiment_ids() == ["exp_a", "exp_b"]
        assert store.scales() == [4.0, 8.0]

    def test_prune(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(make_result("exp_a"), scale=8.0, wall_time_s=0.1)
        store.save(make_result("exp_b"), scale=8.0, wall_time_s=0.1)
        assert store.prune(keep=["exp_a"]) == ["exp_b"]
        assert store.experiment_ids() == ["exp_a"]
        assert set(store.read_manifest()["experiments"]) == {"exp_a"}
