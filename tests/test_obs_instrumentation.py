"""Integration tests for the instrumentation layer across the stack.

The contract under test: instrumentation observes, never perturbs.  Results
must be byte-identical with tracing on and off, worker-process metric
deltas must merge back into the parent recorder, and the CLI surfaces
(``--trace``, ``profile``, ``bench --history``) must work end to end.
"""

import json

import pytest

from test_obs import _validate_trace_events

from repro.cli import main
from repro.core.api import evaluate
from repro.experiments.runner import run_experiments
from repro.experiments.store import ArtifactStore
from repro.machine.theta import ThetaMachine
from repro.obs.recorder import collecting
from repro.scenario.registry import get_scenario
from repro.simmpi.world import SimWorld


def _counters(rec) -> dict:
    """``{(name, sorted-label-items): value}`` for the recorder's counters."""
    totals = {}
    for metric in rec.metrics():
        snap = metric.snapshot()
        if snap["kind"] == "counter":
            totals[(snap["name"], tuple(sorted(snap["labels"].items())))] = snap["value"]
    return totals


class TestTracingDoesNotPerturbResults:
    @pytest.mark.parametrize("experiment_id", ["fig10", "table1", "headline"])
    def test_results_identical_with_tracing_on(self, experiment_id):
        baseline = evaluate(experiment_id, scale=8.0).result.to_dict()
        with collecting():
            traced = evaluate(experiment_id, scale=8.0).result.to_dict()
        assert json.dumps(traced, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )

    def test_artifacts_identical_with_tracing_on(self, tmp_path):
        """The bytes the store persists must not change under tracing."""
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        run_experiments(["fig10", "table1"], scale=8.0, store=ArtifactStore(plain))
        with collecting():
            run_experiments(["fig10", "table1"], scale=8.0, store=ArtifactStore(traced))
        for name in ("fig10.json", "table1.json"):
            left = json.loads((plain / name).read_text())
            right = json.loads((traced / name).read_text())
            # Only the host-side wall time may differ between two runs.
            left.pop("wall_time_s"), right.pop("wall_time_s")
            assert left == right


class TestSimulatorInstrumentation:
    def test_world_run_records_span_and_event_count(self):
        machine = ThetaMachine(8)

        def program(ctx):
            yield from ctx.comm.barrier()
            return ctx.comm.rank

        with collecting() as rec:
            world = SimWorld(machine, ranks_per_node=2)
            world.run(program)
        counters = _counters(rec)
        assert counters[("sim.world_runs", ())] == 1
        assert counters[("sim.events", ())] > 0
        assert "sim.world_run" in rec.span_seconds()

    def test_engine_counts_events_without_recorder(self):
        """The hot loop's event tally is always on (plain int, no guard)."""
        machine = ThetaMachine(8)
        world = SimWorld(machine, ranks_per_node=2)

        def program(ctx):
            yield from ctx.comm.barrier()

        world.run(program)
        assert world.env.events_processed > 0


class TestModelAndPlacementInstrumentation:
    def test_scenario_evaluation_records_api_metrics(self):
        scenario = get_scenario("fig08", scale=16.0)
        with collecting() as rec:
            evaluation = evaluate(scenario)
        assert evaluation.result is not None
        counters = _counters(rec)
        assert counters[("api.scenario_evaluations", ())] == 1
        assert counters[("model.estimates", ())] >= 1
        assert "evaluate.scenario" in rec.span_seconds()

    def test_tapioca_run_records_phase_and_placement_counters(self):
        with collecting() as rec:
            evaluate("fig10", scale=8.0)
        counters = _counters(rec)
        assert counters[("model.phase_seconds", (("phase", "io"),))] > 0.0
        assert counters[("costmodel.candidates", ())] > 0
        misses = counters[("model.aggregations", (("memo", "miss"),))]
        hits = counters[("model.aggregations", (("memo", "hit"),))]
        assert misses > 0 and hits > 0
        assert misses + hits == counters[("model.estimates", ())]


class TestRunnerWorkerMerge:
    def test_parallel_sweep_merges_worker_deltas(self, tmp_path):
        with collecting() as rec:
            report = run_experiments(
                ["fig10", "table1"], scale=8.0, jobs=2, store=ArtifactStore(tmp_path)
            )
        assert report.all_checks_pass()
        counters = _counters(rec)
        # Worker processes ran the experiments, yet their metric deltas
        # (model estimates, placement counters) land in the parent recorder.
        assert counters[("runner.experiments", (("source", "fresh"),))] == 2
        assert counters[("model.estimates", ())] >= 1
        spans = rec.span_seconds()
        assert "runner.sweep" in spans
        assert "run:fig10" in spans and "run:table1" in spans


class TestTunerInstrumentation:
    def test_tune_points_counters_cover_every_point(self):
        from repro.autotune.defaults import as_tunable, suggest_space
        from repro.autotune.tuner import tune

        with collecting() as rec:
            base = as_tunable(get_scenario("fig08", scale=16.0))
            trace = tune(base, suggest_space(base))
        point_counts = {
            labels: value
            for (name, labels), value in _counters(rec).items()
            if name == "tune.points"
        }
        assert sum(point_counts.values()) == len(trace.points)

    def test_tune_points_counters_split_by_source(self, tmp_path):
        from repro.autotune import Categorical, SearchSpace, as_tunable, tune

        # Zero iterations fail spec validation: one invalid point per run.
        space = SearchSpace(Categorical("workload.iterations", (1, 0)))
        base = as_tunable(get_scenario("fig08", scale=16.0))
        store = ArtifactStore(tmp_path)
        sources = []
        for _ in range(2):
            with collecting() as rec:
                tune(base, space, store=store)
            sources.append(
                {
                    dict(labels)["source"]: value
                    for (name, labels), value in _counters(rec).items()
                    if name == "tune.points"
                }
            )
        assert sources == [{"fresh": 1, "invalid": 1}, {"store": 1, "invalid": 1}]


class TestCliSurfaces:
    def test_run_with_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "fig10", "--scale", "8", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        _validate_trace_events(document)
        names = {event["name"] for event in document["traceEvents"]}
        assert "run:fig10" in names

    def test_profile_prints_paper_phase_terms(self, capsys):
        assert main(["profile", "fig10", "--scale", "8"]) == 0
        output = capsys.readouterr().out
        assert "C1: network aggregation" in output
        assert "C2: storage write" in output
        assert "scenario.estimate" in output
        assert "model.estimates" in output

    def test_profile_optionally_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "profile.json"
        assert main(
            ["profile", "fig10", "--scale", "8", "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()
        _validate_trace_events(json.loads(trace_path.read_text()))

    def test_env_enabled_trace_is_flushed_at_exit(
        self, tmp_path, monkeypatch, capsys
    ):
        """``REPRO_TRACE=file`` without ``--trace`` must still write the trace."""
        import importlib

        # The package re-exports the recorder() function under the same
        # name as the submodule, so plain ``import repro.obs.recorder as
        # x`` would bind the function.
        recorder_module = importlib.import_module("repro.obs.recorder")

        trace_path = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        recorder_module.disable()
        recorder_module.configure_from_env()
        try:
            assert main(["run", "fig10", "--scale", "8"]) == 0
        finally:
            recorder_module.disable()
        assert "trace written to" in capsys.readouterr().err
        _validate_trace_events(json.loads(trace_path.read_text()))


class TestReportTimings:
    def test_report_from_store_separates_fresh_from_cached(self, tmp_path, capsys):
        from repro.experiments.report import generate_report_from_store

        store = ArtifactStore(tmp_path)
        run_experiments(["fig10", "table1"], scale=8.0, store=store)
        report = generate_report_from_store(store)
        assert "## timings" in report
        assert "fresh 0.00s + 2 cached" in report
        assert "- `fig10`:" in report
