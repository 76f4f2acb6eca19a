"""Sanity checks for the CI pipeline definition (.github/workflows/ci.yml)."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW.is_file(), "CI workflow file is missing"
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


class TestWorkflowShape:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "lint",
            "tests",
            "smoke",
            "bench",
            "serve",
            "figures",
        }
        # "on" parses as the YAML boolean True in YAML 1.1 readers.
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_every_job_checks_out_and_runs_steps(self, workflow):
        for name, job in workflow["jobs"].items():
            steps = job["steps"]
            assert steps, f"job {name} has no steps"
            assert any("checkout" in str(s.get("uses", "")) for s in steps), name

    def test_tests_job_runs_tier1_suite(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]
        ]
        assert any("python -m pytest -x -q --durations=15" in c for c in commands)

    def test_tests_job_fails_on_a_leaked_daemon_socket(self, workflow):
        """The serve tests run in dev mode with leaked sockets as errors,
        including the ones pytest only sees from a finaliser."""
        commands = [s.get("run", "") for s in workflow["jobs"]["tests"]["steps"]]
        gate = [c for c in commands if "tests/test_serve.py" in c]
        assert len(gate) == 1, "the tests job must run the socket-leak gate once"
        assert "python -X dev -m pytest" in gate[0]
        assert "-W error::ResourceWarning" in gate[0]
        assert "-W error::pytest.PytestUnraisableExceptionWarning" in gate[0]

    def test_every_job_caches_pip(self, workflow):
        for name, job in workflow["jobs"].items():
            setup = [
                s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
            ]
            assert setup, f"job {name} does not set up python"
            assert setup[0]["with"].get("cache") == "pip", name
            assert "cache-dependency-path" in setup[0]["with"], name

    def test_every_job_tests_python_311_and_312(self, workflow):
        for name, job in workflow["jobs"].items():
            versions = job.get("strategy", {}).get("matrix", {}).get("python-version")
            assert versions, f"job {name} has no python-version matrix"
            assert set(versions) >= {"3.11", "3.12"}, name
            setup = [
                s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
            ]
            assert (
                setup[0]["with"]["python-version"]
                == "${{ matrix.python-version }}"
            ), name

    def test_smoke_job_gates_on_an_interference_experiment(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        interference = [
            c
            for c in commands
            if "--experiment interference_" in c or "repro run interference_" in c
        ]
        assert interference, "smoke job must gate on an interference_* experiment"
        assert "--scale 8" in interference[0]

    def test_interference_smoke_gate_runs_all_four_experiments(self, workflow):
        """Every interference_* experiment is re-simulated at scale 8 in one
        uncached run-all, so each multi-job binding shape is gated."""
        steps = {s.get("name"): s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]}
        command = steps["Multi-job interference smoke gate"]
        assert "repro run-all" in command and "--scale 8" in command
        assert "--no-cache" in command
        for experiment in ("theta_ost", "job_count", "alloc_policy", "bb_drain"):
            assert f"--experiment interference_{experiment}" in command

    def test_smoke_job_gates_on_link_sharing_by_ledger_key(self, workflow):
        """interference_alloc_policy's checks count the links two jobs share
        by ledger key, so the smoke job runs it as its own command."""
        commands = [s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]]
        assert any(
            "repro run interference_alloc_policy --scale 8" in c for c in commands
        )

    def test_smoke_job_gates_on_a_scenario_json_run(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        scenario = [c for c in commands if "repro scenario run" in c]
        assert scenario, "smoke job must run a scenario JSON file"
        example = scenario[0].split("repro scenario run", 1)[1].strip().split()[0]
        assert example.endswith(".json")
        repo_root = Path(__file__).resolve().parent.parent
        assert (repo_root / example).is_file(), f"{example} is missing"

    def test_smoke_job_gates_on_a_tuning_run(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        tune = [c for c in commands if "repro tune" in c]
        assert tune, "smoke job must gate on a repro tune run"
        lines = [line for line in tune[0].splitlines() if "repro tune" in line]
        assert len(lines) == 2, "the tune must run twice against one store"
        for line in lines:
            assert "repro tune fig08 --jobs 2 --out artifacts/" in line
            assert "--strategy" not in line and "--budget" not in line

    def test_smoke_job_gates_the_re_tune_on_all_cache_hits(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        tune = [c for c in commands if "repro tune" in c]
        assert tune, "smoke job must gate on a repro tune run"
        second = [line for line in tune[0].splitlines() if "repro tune" in line][1]
        assert '| grep "200 points: 0 evaluated, 200 cache hits"' in second, (
            "the second tune must be served entirely from the point cache"
        )

    def test_smoke_job_gates_on_placement_certification(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        certify = [
            c
            for c in commands
            if "repro run placement_optimality" in c and "placement.certify=true" in c
        ]
        assert certify, (
            "smoke job must run placement_optimality with placement.certify=true"
        )
        assert "--scale 8" in certify[0]
        assert "optimality_gap" in certify[0], (
            "the certified gap must be asserted finite in the artifact envelope"
        )
        assert "Optimality gap:" in certify[0], (
            "the rendered gap line must be asserted in the run output"
        )
        assert "repro run fig14 --scale 8" in certify[0], (
            "certification must also run on fig14, an instance that needs "
            "search beyond the root lower bound"
        )
        assert 'grep -q "proven optimum" certify-fig14.out' in certify[0], (
            "the fig14 certificate must be asserted proven in the run output"
        )
        assert "repro run ablation_burst_buffer --scale 8" in certify[0], (
            "certification must also run on ablation_burst_buffer, whose "
            "greedy warm start is not every partition's root-bound candidate"
        )
        assert 'grep -q "proven optimum" certify-burst-buffer.out' in certify[0], (
            "the ablation_burst_buffer certificate must be asserted proven"
        )

    def test_smoke_job_reverifies_artifacts_with_certification_off(self, workflow):
        commands = [
            s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]
        ]
        reverify = [c for c in commands if "artifacts-plain/" in c]
        assert reverify, (
            "smoke job must re-run the default sweep after the certified run "
            "and compare artifacts against the first run-all"
        )
        assert "--no-cache" in reverify[0]
        assert "wall_time_s" in reverify[0], (
            "only wall_time_s may be excluded from the byte-identical comparison"
        )
        certify_index = next(
            i for i, c in enumerate(commands) if "placement.certify=true" in c
        )
        plain_index = next(
            i for i, c in enumerate(commands) if "artifacts-plain/" in c
        )
        assert certify_index < plain_index, (
            "the certify-off re-verify must run after the certified run"
        )

    def test_tuning_trace_artifact_is_uploaded(self, workflow):
        steps = workflow["jobs"]["smoke"]["steps"]
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads
        assert "*.tuning.json" in uploads[0]["with"]["path"]
        # The tune step must run before the report regeneration so the
        # trace section appears in EXPERIMENTS.smoke.md.
        commands = [s.get("run", "") for s in steps]
        tune_index = next(i for i, c in enumerate(commands) if "repro tune" in c)
        report_index = next(
            i for i, c in enumerate(commands) if "repro report --from" in c
        )
        assert tune_index < report_index

    def test_bench_job_runs_the_perfbench_tests(self, workflow):
        steps = workflow["jobs"]["bench"]["steps"]
        commands = [s.get("run", "") for s in steps]
        install = [c for c in commands if "pip install" in c]
        assert any('".[test]"' in c for c in install), (
            "the perfbench tests need the test extra"
        )
        assert any("python -m pytest perfbench/tests" in c for c in commands), (
            "the bench job must exercise the one benchmark harness"
        )

    def test_bench_job_gates_on_the_contention_mix_digest(self, workflow):
        """The multi-job runtime must reproduce perfbench's committed
        contention_mix digests of seeds 1 and 7, and every scenario must
        pass its check."""
        commands = [s.get("run", "") for s in workflow["jobs"]["bench"]["steps"]]
        gate = [c for c in commands if "--workload contention_mix" in c]
        assert gate, "the bench job must run the contention_mix workload"
        for seed in (1, 7):
            assert (
                f"python perfbench/run.py --workload contention_mix --seed {seed} --seconds 20"
                in gate[0]
            )
            assert f"grep -E '^digest contention_mix/{seed}/60 [0-9a-f]+ reference match$'" in (
                gate[0]
            )
        assert gate[0].count("grep -F '\"correct\": true'") == 2

    def test_bench_job_gates_contention_mix_on_the_scalar_oracle(self, workflow):
        """Every seed-1 and seed-7 contention_mix report must equal the
        scalar oracle's unrounded; the digest sees rounded slowdowns only."""
        steps = workflow["jobs"]["bench"]["steps"]
        gate = [s.get("run", "") for s in steps if s.get("name") == "Contention-mix oracle gate"]
        assert gate, "the bench job must replay contention_mix through the oracle"
        assert "PYTHONPATH=tests${PYTHONPATH:+:$PYTHONPATH} python - <<'EOF'" in gate[0]
        assert "from perfbench.workloads import contention_payloads" in gate[0]
        assert "for seed in (1, 7):" in gate[0]
        assert "contention_payloads(seed, 60)" in gate[0]
        assert "if report != run_scalar(simulation.multijob_runtime()):" in gate[0]
        assert "assert not unequal" in gate[0]

    def test_bench_job_gates_on_the_des_roundtrip_digest(self, workflow):
        """The discrete-event engine must reproduce perfbench's committed
        des_roundtrip digests of seeds 1 and 7, and every write and read
        must pass its check."""
        commands = [s.get("run", "") for s in workflow["jobs"]["bench"]["steps"]]
        gate = [c for c in commands if "--workload des_roundtrip" in c]
        assert gate, "the bench job must run the des_roundtrip workload"
        for seed in (1, 7):
            assert (
                f"python perfbench/run.py --workload des_roundtrip --seed {seed} --seconds 20"
                in gate[0]
            )
            assert f"grep -E '^digest des_roundtrip/{seed}/72 [0-9a-f]+ reference match$'" in (
                gate[0]
            )
        assert gate[0].count("grep -F '\"correct\": true'") == 2

    def test_bench_job_gates_on_the_scenario_stream_digest(self, workflow):
        """evaluate() through a SQLite store must reproduce perfbench's
        committed scenario_stream digests of seeds 1 and 7, store hits
        included, and every call must pass its check."""
        commands = [s.get("run", "") for s in workflow["jobs"]["bench"]["steps"]]
        gate = [c for c in commands if "--workload scenario_stream" in c]
        assert gate, "the bench job must run the scenario_stream workload"
        for seed in (1, 7):
            assert (
                f"python perfbench/run.py --workload scenario_stream --seed {seed} --seconds 20"
                in gate[0]
            )
            assert (
                f"grep -E '^digest scenario_stream/{seed}/1488 [0-9a-f]+ reference match$'"
                in gate[0]
            )
        assert gate[0].count("grep -F '\"correct\": true'") == 2

    def test_serve_job_submits_twice_and_asserts_cache_hit(self, workflow):
        steps = workflow["jobs"]["serve"]["steps"]
        commands = [s.get("run", "") for s in steps]
        start = [c for c in commands if "repro serve" in c]
        assert start, "serve job must start the evaluation daemon"
        assert "healthz" in start[0], "the job must wait for the daemon to be up"
        submit = [c for c in commands if "repro submit" in c]
        assert submit, "serve job must submit scenarios to the daemon"
        assert submit[0].count("repro submit") >= 2, (
            "the same scenario must be submitted twice"
        )
        assert '"cached"' in submit[0] or "cached" in submit[0], (
            "the second submission must be asserted to be a cache hit"
        )

    def test_smoke_job_runs_run_all_and_uploads_artifacts(self, workflow):
        steps = workflow["jobs"]["smoke"]["steps"]
        commands = [s.get("run", "") for s in steps]
        smoke = [c for c in commands if "repro run-all" in c]
        assert smoke, "smoke job must invoke repro run-all"
        assert "--scale 8" in smoke[0]
        assert "--jobs 2" in smoke[0]
        assert "--out artifacts/" in smoke[0]
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads, "smoke job must upload the artifact directory"
        assert "manifest.json" in uploads[0]["with"]["path"]

    def test_smoke_job_runs_a_traced_experiment_and_uploads_the_trace(
        self, workflow
    ):
        steps = workflow["jobs"]["smoke"]["steps"]
        commands = [s.get("run", "") for s in steps]
        traced = [c for c in commands if "--trace artifacts/trace.json" in c]
        assert traced, "smoke job must exercise repro run --trace"
        assert "repro run fig08" in traced[0]
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert "artifacts/trace.json" in uploads[0]["with"]["path"], (
            "the Chrome trace must be uploaded with the experiment artifacts"
        )

    def test_smoke_job_reverifies_artifacts_under_tracing(self, workflow):
        commands = [s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]]
        reverify = [c for c in commands if "REPRO_TRACE=1" in c]
        assert reverify, (
            "smoke job must re-run the sweep with tracing on and compare "
            "artifacts against the untraced run"
        )
        assert "--no-cache" in reverify[0], "the traced re-run must not hit the cache"
        assert "artifacts-traced/" in reverify[0]
        assert "wall_time_s" in reverify[0], (
            "only wall_time_s may be excluded from the byte-identical comparison"
        )

    def test_reverify_steps_use_the_diff_artifacts_subcommand(self, workflow):
        commands = [s.get("run", "") for s in workflow["jobs"]["smoke"]["steps"]]
        diffs = [c for c in commands if "repro diff-artifacts" in c]
        assert len(diffs) == 2, (
            "every byte-identity re-verify must go through the shared "
            "diff-artifacts subcommand, not inline python"
        )
        for command in diffs:
            assert "--ignore wall_time_s" in command
        assert any("artifacts-traced" in c for c in diffs)
        assert any("artifacts-plain" in c for c in diffs)

    def test_interference_smoke_runs_one_implementation(self, workflow):
        steps = workflow["jobs"]["smoke"]["steps"]
        commands = [s.get("run", "") for s in steps]
        interference = [c for c in commands if "repro run interference_" in c]
        assert interference, "smoke job must run an interference experiment"
        assert all(c.count("repro run interference_") == 1 for c in interference)
        # The contention engine has one implementation; no step may switch
        # the program onto another path through the environment.
        for step in steps:
            assert not any(
                key.startswith("REPRO_DISABLE") for key in step.get("env", {})
            )
            assert "REPRO_DISABLE" not in step.get("run", "")

    def test_figures_job_renders_and_gates_from_artifacts(self, workflow):
        steps = workflow["jobs"]["figures"]["steps"]
        commands = [s.get("run", "") for s in steps]
        install = [c for c in commands if "pip install" in c]
        assert any('".[plots]"' in c for c in install), (
            "the figures job must install the matplotlib extra"
        )
        sweep = [c for c in commands if "repro run-all" in c]
        assert sweep and "--scale 8" in sweep[0] and "--out artifacts/" in sweep[0]
        figures = [c for c in commands if "repro figures" in c]
        assert figures, "the figures job must invoke repro figures"
        assert "--all" in figures[0]
        assert "--check" in figures[0], "tolerance breaches must fail the job"
        assert "--from artifacts/" in figures[0], (
            "figures must render from the stored artifacts, not re-simulate"
        )
        uploads = [s for s in steps if "upload-artifact" in str(s.get("uses", ""))]
        assert uploads, "the figures job must upload the figure bundle"
        path = uploads[0]["with"]["path"]
        assert "deviation_report.json" in path
        assert "*.csv" in path and "*.png" in path

    def test_figures_job_gates_paper_scale_figures(self, workflow):
        commands = [s.get("run", "") for s in workflow["jobs"]["figures"]["steps"]]
        sweeps = [c for c in commands if "repro run-all" in c and "--scale 1 " in c]
        assert sweeps, "the figures job must run the paper-scale sweep"
        assert "--jobs 2" in sweeps[0]
        store = re.search(r"--out[= ]+(\S+)", sweeps[0]).group(1)
        assert store != "artifacts/", "the scale-1 sweep needs its own store"
        gates = [c for c in commands if "repro figures" in c and f"--from {store}" in c]
        assert gates, "the scale-1 figures must be rendered from the scale-1 store"
        assert "--all" in gates[0] and "--check" in gates[0]
        assert commands.index(sweeps[0]) < commands.index(gates[0])

    def test_figures_job_reverifies_paper_scale_artifacts_under_tracing(
        self, workflow
    ):
        commands = [s.get("run", "") for s in workflow["jobs"]["figures"]["steps"]]
        traced = [c for c in commands if "REPRO_TRACE=1" in c]
        assert traced, (
            "the figures job must re-run the scale-1 sweep with tracing on"
        )
        sweep = next(
            line for line in traced[0].splitlines() if "repro run-all" in line
        )
        assert "--scale 1 " in sweep and "--jobs 2" in sweep
        assert "--no-cache" in sweep, "the traced re-run must not hit the cache"
        store = re.search(r"--out[= ]+(\S+)", sweep).group(1).rstrip("/")
        plain = next(
            c for c in commands if "repro run-all" in c and "--scale 1 " in c
        )
        assert commands.index(plain) < commands.index(traced[0])
        diff = next(
            line for line in traced[0].splitlines() if "repro diff-artifacts" in line
        )
        assert diff.split()[4:6] == ["artifacts-scale1", store], (
            "the traced store must be compared against the untraced scale-1 one"
        )
        assert "--ignore wall_time_s" in diff, (
            "only wall_time_s may be excluded from the byte-identical comparison"
        )

    def test_figures_job_gates_paper_scale_artifacts_on_one_shared_memo(self, workflow):
        """A one-process scale-1 sweep, whose aggregation memo spans every
        experiment, must match the two-worker sweep byte-for-byte."""
        commands = [s.get("run", "") for s in workflow["jobs"]["figures"]["steps"]]
        plain = next(c for c in commands if "repro run-all" in c and "--scale 1 " in c)
        serial = [
            c for c in commands
            if "REPRO_TRACE" not in c and any(
                "repro run-all" in line and "--jobs 1" in line for line in c.splitlines()
            )
        ]
        assert serial, "the figures job must re-run the scale-1 sweep in one process"
        sweep = next(line for line in serial[0].splitlines() if "repro run-all" in line)
        assert "--scale 1 " in sweep and "--no-cache" in sweep
        store = re.search(r"--out[= ]+(\S+)", sweep).group(1).rstrip("/")
        assert "--jobs 2" in plain
        assert commands.index(plain) < commands.index(serial[0])
        diff = next(
            line for line in serial[0].splitlines() if "repro diff-artifacts" in line
        )
        assert diff.split()[4:6] == ["artifacts-scale1", store]
        assert "--ignore wall_time_s" in diff

    def test_serve_job_scrapes_prometheus_metrics(self, workflow):
        commands = [s.get("run", "") for s in workflow["jobs"]["serve"]["steps"]]
        scrape = [c for c in commands if "/metrics" in c]
        assert scrape, "serve job must scrape the daemon's /metrics endpoint"
        assert "repro_serve_requests_total" in scrape[0]
        assert "repro_serve_request_seconds_count" in scrape[0]

    def test_every_store_spec_names_a_live_backend(self, workflow):
        """Every ``--out``/``--from`` spec in the workflow opens a backend,
        so CI can never name a deleted store backend again."""
        from repro.experiments.backends import open_backend

        commands = [
            step.get("run", "")
            for job in workflow["jobs"].values()
            for step in job["steps"]
        ]
        specs = [
            spec
            for command in commands
            for spec in re.findall(r"--(?:out|from)[= ]+(\S+)", command)
        ]
        assert "sqlite:serve-store.db" in specs
        for spec in specs:
            open_backend(spec)  # raises ValueError on an unknown prefix
