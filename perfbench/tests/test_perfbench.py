"""The benchmark's own tests, at tiny sizes.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads as wl
from perfbench.measure import digest, tail_percentile
from perfbench.run import run_ops
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def traced(plan):
    tracer = Tracer().install()
    try:
        samples, records = run_ops(plan, tracer)
    finally:
        tracer.uninstall()
    return samples, records, tracer


# -- generators --------------------------------------------------------------


def test_stream_payload_hashes_repeat_per_seed():
    first, shapes = wl.stream_payloads(7, 12)
    again, _ = wl.stream_payloads(7, 12)
    other, _ = wl.stream_payloads(8, 12)
    assert [key for key, _ in first] == [key for key, _ in again]
    assert [key for key, _ in first] != [key for key, _ in other]
    assert len({key for key, _ in first}) == 12
    assert shapes > 1


def test_contention_and_des_inputs_repeat_per_seed():
    assert wl.contention_payloads(3, 2) == wl.contention_payloads(3, 2)
    assert wl.contention_payloads(3, 2) != wl.contention_payloads(4, 2)
    assert wl.des_cells(3, 5) == wl.des_cells(3, 5)
    assert wl.des_cells(3, 5) != wl.des_cells(4, 5)


def test_contention_job_counts_do_not_depend_on_the_seed():
    def job_counts(seed):
        return sorted(len(p["multijob"]["jobs"]) for p in wl.contention_payloads(seed, 6))

    assert job_counts(1) == job_counts(2)


def test_stream_resubmits_a_quarter(tmp_path):
    plan = wl.scenario_stream(5, 16, tmp_path)
    kinds = [op.kind for op in plan.ops]
    assert kinds[0] == "miss"
    assert kinds.count("hit") == int(16 * wl.RESUBMIT_SHARE)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 95
    assert tail_percentile(200) == 95
    assert tail_percentile(199) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(40) == 75
    assert tail_percentile(39) is None


# -- counts and digests repeat exactly ----------------------------------------


def test_des_events_and_digest_repeat(tmp_path):
    runs = [traced(wl.des_roundtrip(2, 2, tmp_path)) for _ in range(2)]
    (samples, records, first), (_, records_again, second) = runs
    assert all(sample.ok for sample in samples)
    assert first.counts["simmpi.events"] > 0
    assert first.counts["simmpi.events"] == second.counts["simmpi.events"]
    assert first.counts["simmpi.bytes"] == second.counts["simmpi.bytes"]
    assert digest(records) == digest(records_again)


def test_contention_solves_and_digest_repeat(tmp_path):
    runs = [traced(wl.contention_mix(2, 1, tmp_path)) for _ in range(2)]
    (samples, records, first), (_, records_again, second) = runs
    assert all(sample.ok for sample in samples)
    assert first.counts["contention.solves"] > 0
    assert first.counts["contention.solves"] == second.counts["contention.solves"]
    assert digest(records) == digest(records_again)


def test_placement_candidates_and_stream_digest_repeat(tmp_path):
    runs = [traced(wl.scenario_stream(2, 8, tmp_path / str(i))) for i in range(2)]
    (samples, records, first), (_, records_again, second) = runs
    assert all(sample.ok for sample in samples)
    assert first.counts["placement.candidates"] > 0
    assert first.counts["placement.candidates"] == second.counts["placement.candidates"]
    assert first.counts["store.hits"] == 2
    assert digest(records) == digest(records_again)


def test_runner_counts_cpu_per_experiment():
    from repro.experiments import runner

    def fig08():
        return runner.run_experiments(["fig08"], scale=1)

    plan = wl.Plan([wl.Op("fig08", "experiment", fig08, lambda report: wl.Outcome(True))])
    samples, _records, tracer = traced(plan)
    assert [sample.ok for sample in samples] == [True]
    assert tracer.counts["experiment.fig08.cpu_s"] > 0


def test_tracer_restores_the_program():
    from repro.core import api
    from repro.simmpi.world import SimWorld

    evaluate, run = api.evaluate, SimWorld.run
    Tracer().install().uninstall()
    assert api.evaluate is evaluate and SimWorld.run is run


# -- failures are counted --------------------------------------------------------


def test_tampered_des_image_is_failed(tmp_path):
    plan = wl.des_roundtrip(1, 1, tmp_path)
    write, read = plan.ops
    output = write.call()
    output["result"].files.open(wl.DES_PATH, create=False).write(0, b"\xff\x00\xff")
    assert not write.check(output).ok
    assert not read.check(read.call()).ok


def test_tampered_read_is_failed(tmp_path):
    plan = wl.des_roundtrip(1, 1, tmp_path)
    write, read = plan.ops
    assert write.check(write.call()).ok
    output = read.call()
    returns = output["result"].returns
    offset = next(iter(returns[0]))
    returns[0][offset] = bytes(len(returns[0][offset]))
    assert not read.check(output).ok


def test_tampered_stored_result_is_failed(tmp_path):
    plan = wl.scenario_stream(3, 8, tmp_path)
    samples, _ = run_ops(plan)
    assert all(sample.ok for sample in samples)
    # Corrupt every stored result, then replay the stream's hits.
    store = plan.ops[0].call.keywords["store"]
    for key in store.backend.keys("scenario-results/"):
        envelope = json.loads(store.backend.get(key))
        envelope["result"]["series"][0]["points"][0]["bandwidth_gbps"] += 1.0
        store.backend.put(key, json.dumps(envelope))
    hits = [op for op in plan.ops if op.kind == "hit"]
    assert hits
    assert not any(op.check(op.call()).ok for op in hits)


def test_raising_op_is_failed():
    def boom():
        raise RuntimeError("starved")

    plan = wl.Plan([wl.Op("boom", "op", boom, lambda output: wl.Outcome(True))])
    (sample,), _ = run_ops(plan)
    assert not sample.ok and "starved" in sample.reason


# -- the command line --------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
