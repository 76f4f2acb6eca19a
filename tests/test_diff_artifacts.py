"""``repro diff-artifacts`` and the comparison library behind it."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.diff import comparable_artifact_names, compare_artifact_dirs


def _write(root, name: str, payload) -> None:
    (root / name).write_text(json.dumps(payload, sort_keys=True))


def _artifact_dir(root, wall: float = 1.0):
    root.mkdir(exist_ok=True)
    _write(root, "fig08.json", {"experiment_id": "fig08", "wall_time_s": wall, "result": {"x": 1}})
    _write(root, "fig10.json", {"experiment_id": "fig10", "wall_time_s": wall, "result": {"x": 2}})
    _write(root, "manifest.json", {"git_sha": "abc", "wall": wall})
    _write(root, "trace.json", {"traceEvents": []})
    _write(root, "fig08.tuning.json", {"points": []})
    return root


class TestComparableNames:
    def test_excludes_manifest_trace_and_tuning_files(self, tmp_path):
        names = comparable_artifact_names(_artifact_dir(tmp_path / "a"))
        assert names == ["fig08.json", "fig10.json"]


class TestCompareArtifactDirs:
    def test_identical_dirs_have_no_differences(self, tmp_path):
        a = _artifact_dir(tmp_path / "a")
        b = _artifact_dir(tmp_path / "b")
        assert compare_artifact_dirs(a, b) == []

    def test_ignored_keys_are_excluded(self, tmp_path):
        a = _artifact_dir(tmp_path / "a", wall=1.0)
        b = _artifact_dir(tmp_path / "b", wall=9.0)
        assert compare_artifact_dirs(a, b) != []
        assert compare_artifact_dirs(a, b, ignore=("wall_time_s",)) == []

    def test_differing_envelopes_name_the_changed_keys(self, tmp_path):
        a = _artifact_dir(tmp_path / "a")
        b = _artifact_dir(tmp_path / "b")
        _write(b, "fig10.json", {"experiment_id": "fig10", "wall_time_s": 1.0, "result": {"x": 99}})
        problems = compare_artifact_dirs(a, b, ignore=("wall_time_s",))
        assert len(problems) == 1
        assert "fig10.json" in problems[0] and "result" in problems[0]

    def test_files_on_only_one_side_are_differences(self, tmp_path):
        a = _artifact_dir(tmp_path / "a")
        b = _artifact_dir(tmp_path / "b")
        (b / "fig10.json").unlink()
        _write(b, "fig13.json", {"experiment_id": "fig13"})
        problems = compare_artifact_dirs(a, b)
        assert any("only in" in p and "fig10.json" in p for p in problems)
        assert any("only in" in p and "fig13.json" in p for p in problems)

    def test_unreadable_json_is_a_difference_not_a_crash(self, tmp_path):
        a = _artifact_dir(tmp_path / "a")
        b = _artifact_dir(tmp_path / "b")
        (b / "fig08.json").write_text("{truncated")
        problems = compare_artifact_dirs(a, b)
        assert any("fig08.json" in p and "unreadable" in p for p in problems)


class TestDiffArtifactsCommand:
    def test_identical_dirs_exit_zero(self, tmp_path, capsys):
        a = _artifact_dir(tmp_path / "a", wall=1.0)
        b = _artifact_dir(tmp_path / "b", wall=2.0)
        code = main(
            ["diff-artifacts", str(a), str(b), "--ignore", "wall_time_s"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 artifacts identical" in out
        assert "wall_time_s" in out

    def test_differences_exit_one_with_messages(self, tmp_path, capsys):
        a = _artifact_dir(tmp_path / "a", wall=1.0)
        b = _artifact_dir(tmp_path / "b", wall=2.0)
        code = main(["diff-artifacts", str(a), str(b)])
        assert code == 1
        err = capsys.readouterr().err
        assert "fig08.json" in err and "wall_time_s" in err

    def test_two_empty_dirs_are_an_error_not_a_pass(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        # Non-envelope files alone (manifest, trace) leave nothing to compare.
        _write(a, "manifest.json", {"git_sha": "abc"})
        code = main(["diff-artifacts", str(a), str(b), "--ignore", "wall_time_s"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: no artifacts to compare" in captured.err
        assert "identical" not in captured.out

    def test_one_empty_side_names_the_missing_artifacts(self, tmp_path, capsys):
        a = _artifact_dir(tmp_path / "a")
        b = tmp_path / "b"
        b.mkdir()
        assert main(["diff-artifacts", str(a), str(b)]) == 1
        assert "only in" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diff-artifacts", str(tmp_path / "nope"), str(tmp_path)])

    def test_real_store_round_trip(self, tmp_path):
        """Two stores of the same result differ only in wall_time_s."""
        from repro.experiments.results import ExperimentResult, Series
        from repro.experiments.store import ArtifactStore

        result = ExperimentResult(
            experiment_id="fig10",
            title="t",
            machine="theta",
            x_label="MB/rank",
            series=[Series("TAPIOCA")],
        )
        for directory, wall in (("a", 1.0), ("b", 2.0)):
            ArtifactStore(tmp_path / directory).save(
                result, scale=8.0, wall_time_s=wall
            )
        code = main(
            [
                "diff-artifacts",
                str(tmp_path / "a"),
                str(tmp_path / "b"),
                "--ignore",
                "wall_time_s",
            ]
        )
        assert code == 0
