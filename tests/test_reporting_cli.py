"""The ``repro figures`` subcommand end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.store import ArtifactStore
from repro.reporting.figures import FIGURES


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every registered figure reproduced once at smoke scale, stored."""
    from repro.experiments.runner import run_experiments

    root = tmp_path_factory.mktemp("figure-artifacts")
    store = ArtifactStore(root)
    run_experiments(list(FIGURES), scale=8.0, store=store)
    return root


class TestFiguresCommand:
    def test_all_figures_from_artifacts_alone(self, artifacts, tmp_path, capsys):
        out = tmp_path / "figures"
        code = main(
            ["figures", "--all", "--check", "--from", str(artifacts), "--out", str(out)]
        )
        assert code == 0
        for figure_id in FIGURES:
            assert (out / f"{figure_id}.csv").is_file(), figure_id
        report = json.loads((out / "deviation_report.json").read_text())
        assert report["pass"] is True
        assert set(report["figures"]) == set(FIGURES)
        assert report["points_compared"] > 100
        captured = capsys.readouterr()
        assert "Deviation gate: PASS" in captured.out
        assert "Points compared:" in captured.out

    def test_single_figure_by_name(self, artifacts, tmp_path):
        out = tmp_path / "one"
        assert main(["figures", "fig10", "--from", str(artifacts), "--out", str(out)]) == 0
        assert (out / "fig10.csv").is_file()
        assert not (out / "fig09.csv").exists()

    def test_requires_a_figure_or_all(self, artifacts):
        with pytest.raises(SystemExit):
            main(["figures", "--from", str(artifacts)])

    def test_unknown_figure_is_a_usage_error(self, artifacts):
        with pytest.raises(SystemExit):
            main(["figures", "fig99", "--from", str(artifacts)])

    def test_missing_artifact_fails_without_simulating(self, tmp_path, capsys):
        empty = tmp_path / "empty-store"
        empty.mkdir()
        code = main(["figures", "fig10", "--from", str(empty), "--out", str(tmp_path / "f")])
        assert code == 1
        assert "no stored artifact" in capsys.readouterr().err

    def test_sqlite_store_spec(self, artifacts, tmp_path):
        from repro.experiments.results import ExperimentResult

        db = tmp_path / "art.db"
        sqlite_store = ArtifactStore.from_spec(f"sqlite:{db}")
        envelope = ArtifactStore(artifacts).load_envelope("fig10")
        sqlite_store.save(
            ExperimentResult.from_dict(envelope["result"]),
            scale=envelope["scale"],
            wall_time_s=envelope["wall_time_s"],
        )
        out = tmp_path / "from-sqlite"
        assert main(["figures", "fig10", "--from", f"sqlite:{db}", "--out", str(out)]) == 0
        assert (out / "fig10.csv").is_file()

    def test_figures_trace_records_render_spans(self, artifacts, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "figures",
                "fig10",
                "--from",
                str(artifacts),
                "--out",
                str(tmp_path / "f"),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        names = {event.get("name") for event in document["traceEvents"]}
        assert "reporting.render:fig10" in names

