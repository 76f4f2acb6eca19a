"""Smoke tests: the example scripts run end-to-end and the report generator works."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.report import generate_report_from_store
from repro.experiments.runner import run_experiments
from repro.experiments.store import ArtifactStore

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestExamples:
    def _run(self, name: str, argv: list[str]) -> None:
        script = EXAMPLES_DIR / name
        assert script.exists(), f"example {name} is missing"
        old_argv = sys.argv
        sys.argv = [str(script)] + argv
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = old_argv

    def test_quickstart_runs(self, capsys):
        self._run("quickstart.py", [])
        output = capsys.readouterr().out
        assert "File verified" in output
        assert "Aggregator placement" in output

    def test_hacc_io_theta_runs_at_small_scale(self, capsys):
        self._run("hacc_io_theta.py", ["64"])
        output = capsys.readouterr().out
        assert "HACC-IO" in output
        assert "speedup" in output

    def test_buffer_stripe_ratio_runs(self, capsys):
        self._run("buffer_stripe_ratio.py", [])
        output = capsys.readouterr().out
        assert "Best ratio in this reproduction: 1:1" in output

    def test_two_job_interference_runs(self, capsys):
        self._run("two_job_interference.py", ["8"])
        output = capsys.readouterr().out
        assert "shared OSTs" in output and "disjoint OSTs" in output
        assert "bandwidth conserved: True" in output

    def test_aggregator_placement_study_runs(self, capsys):
        self._run("aggregator_placement_study.py", [])
        output = capsys.readouterr().out
        assert "topology-aware" in output

    def test_autotune_theta_runs_at_small_scale(self, capsys):
        self._run("autotune_theta.py", ["8"])
        output = capsys.readouterr().out
        assert "Proven optimum:" in output
        assert "48 OSTs" in output
        assert "shared locks: True" in output
        assert "below the proven optimum" in output

    def test_placement_optimality_runs(self, capsys):
        self._run("placement_optimality.py", [])
        output = capsys.readouterr().out
        assert "greedy" in output and "exact" in output
        assert "proven optimum" in output
        assert "Certified optimality gap" in output

    def test_example_tuning_trace_is_valid(self):
        from repro.autotune.trace import TuningTrace

        trace_file = EXAMPLES_DIR / "traces" / "fig08.tuning.json"
        assert trace_file.is_file(), "example tuning trace is missing"
        import json

        trace = TuningTrace.from_dict(json.loads(trace_file.read_text()))
        assert trace.target == "fig08"
        assert trace.best_value is not None and trace.best_value > 0
        assert len(trace.points) == 200


class TestReportGenerator:
    """``run-all`` writes the store; the report renders only from it."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("report-store"))
        run_experiments(["table1", "fig10"], scale=16.0, store=store)
        return store

    def test_generate_report_subset(self, store):
        report = generate_report_from_store(store, ids=["table1"])
        assert "table1" in report and "## fig10" not in report
        assert "paper vs. reproduction" in report
        assert "- [x]" in report  # at least one passing check box

    def test_cli_writes_file(self, store, tmp_path):
        output = tmp_path / "report.md"
        code = cli_main(
            ["report", "--from", str(store.root), "-o", str(output),
             "--experiment", "fig10"]
        )
        assert code == 0
        text = output.read_text()
        assert "fig10" in text

    def test_unknown_experiment_id_fails(self, store):
        with pytest.raises(FileNotFoundError):
            generate_report_from_store(store, ids=["fig99"])
