"""The ``repro bench`` subcommand and the benchmark suite payload."""

from __future__ import annotations

import json


from repro.cli import main
from repro.experiments.bench import BENCH_SCHEMA, bench_placement, render_suite

#: Tiny parameters so the whole CLI round-trip stays in CI-smoke territory.
_FAST_ARGS = [
    "--nodes",
    "32",
    "--aggregators",
    "4",
    "--tune-budget",
    "4",
    "--tune-scale",
    "8",
    # Scale 8 (not higher): the registry's qualitative checks are only
    # validated at scales 1 and 8, and table1 genuinely fails beyond that.
    "--run-all-scale",
    "8",
    "--interference-flows",
    "12",
    "--interference-rounds",
    "4",
    "--interference-jobs",
    "4",
    "--interference-mb",
    "64",
]


def test_bench_writes_payload_and_summary(tmp_path, capsys):
    out = tmp_path / "BENCH_test.json"
    code = main(["bench", "--out", str(out), *_FAST_ARGS])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    results = payload["results"]
    for kind in ("theta", "mira"):
        entry = results[f"placement_{kind}"]
        assert entry["nodes"] == 32
        assert entry["fast"]["candidates_per_s"] > 0
    assert results["tune"]["points"] == 4
    assert results["run_all"]["experiments"] > 0
    interference = results["interference"]
    assert interference["flows"] == 12 and interference["resources"] == 48
    assert interference["ledger"]["fast"]["alloc_per_s"] > 0
    assert interference["sweep"]["fast"]["wall_s"] > 0
    captured = capsys.readouterr()
    assert "placement/theta" in captured.out
    assert "interference/ledger" in captured.out
    assert str(out) in captured.out


def test_bench_enforces_placement_floor(tmp_path, capsys):
    out = tmp_path / "BENCH_floor.json"
    code = main(
        ["bench", "--out", str(out), *_FAST_ARGS, "--min-placement-rate", "1e12"]
    )
    assert code == 1
    assert "below the floor" in capsys.readouterr().err
    # The artifact is still written so the regression can be inspected.
    assert out.exists()


def test_bench_placement_reports_throughput_fields():
    entry = bench_placement("theta", nodes=32, num_aggregators=4)
    assert set(entry) == {"machine", "nodes", "num_aggregators", "candidates", "fast"}
    assert entry["candidates"] == 32  # node granularity: one candidate per node
    assert entry["fast"]["candidates_per_s"] > 0


def _bench_payload(**results) -> dict:
    return {"schema": BENCH_SCHEMA, "git_sha": "abc", "results": results}


class TestLoadHistoryHardening:
    """Corrupt or mislabelled BENCH files are skipped with a warning."""

    def test_truncated_json_is_skipped_with_a_warning(self, tmp_path):
        from repro.experiments.bench import load_history

        good = _bench_payload(run_all={"wall_s": 1.0})
        (tmp_path / "BENCH_5.json").write_text(json.dumps(good))
        truncated = json.dumps(good)[: len(json.dumps(good)) // 2]
        (tmp_path / "BENCH_6.json").write_text(truncated)
        warnings: list[str] = []
        history = load_history(tmp_path, on_warning=warnings.append)
        assert [name for name, _ in history] == ["BENCH_5.json"]
        assert len(warnings) == 1
        assert "BENCH_6.json" in warnings[0]
        assert "unreadable JSON" in warnings[0]

    def test_missing_and_unknown_schema_are_skipped(self, tmp_path):
        from repro.experiments.bench import load_history

        (tmp_path / "BENCH_5.json").write_text(
            json.dumps(_bench_payload(run_all={"wall_s": 1.0}))
        )
        (tmp_path / "BENCH_6.json").write_text(json.dumps({"results": {}}))
        (tmp_path / "BENCH_7.json").write_text(
            json.dumps({"schema": "repro-bench-v999", "results": {}})
        )
        (tmp_path / "BENCH_8.json").write_text(json.dumps(["not", "an", "object"]))
        warnings: list[str] = []
        history = load_history(tmp_path, on_warning=warnings.append)
        assert [name for name, _ in history] == ["BENCH_5.json"]
        assert any("missing schema" in w for w in warnings)
        assert any("repro-bench-v999" in w for w in warnings)
        assert any("not a JSON object" in w for w in warnings)

    def test_silent_without_a_callback(self, tmp_path):
        from repro.experiments.bench import load_history

        (tmp_path / "BENCH_5.json").write_text("{nope")
        assert load_history(tmp_path) == []

    def test_bench_history_cli_warns_and_survives(self, tmp_path, capsys):
        (tmp_path / "BENCH_5.json").write_text(
            json.dumps(
                _bench_payload(
                    placement_theta={"fast": {"candidates_per_s": 16000.0}}
                )
            )
        )
        (tmp_path / "BENCH_6.json").write_text("{truncated")
        code = main(["bench", "--history", "--history-root", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "BENCH_5.json" in captured.out
        assert "warning:" in captured.err and "BENCH_6.json" in captured.err


class TestHistoryMetricsTable:
    """One extraction table drives --history, regressions, and the dashboard."""

    def test_history_row_uses_the_shared_table(self):
        from repro.experiments.bench import HISTORY_METRICS, history_row

        row = history_row("BENCH_9.json", _bench_payload())
        for metric in HISTORY_METRICS:
            assert metric.key in row and row[metric.key] is None

    def test_every_floor_is_gated(self):
        from repro.experiments.bench import history_regressions

        bad = {
            "name": "BENCH_9.json",
            "placement_cand_per_s": 1.0,
            "opt_exact_nodes_per_s": 1.0,
            "opt_anneal_flips_per_s": 1.0,
            "tune_points_per_s": 0.1,
            "interference_alloc_per_s": 1.0,
            "run_all_wall_s": 1e6,
            "serve_cold_req_per_s": 0.1,
        }
        problems = history_regressions([bad])
        assert len(problems) == 7
        assert any("placement cand/s" in p and "below" in p for p in problems)
        assert any("interference alloc/s" in p and "below" in p for p in problems)
        assert any("run-all wall s" in p and "above" in p for p in problems)

    def test_committed_bench_artifacts_clear_every_floor(self):
        from pathlib import Path

        from repro.experiments.bench import (
            history_regressions,
            history_row,
            load_history,
        )

        root = Path(__file__).resolve().parent.parent
        history = load_history(root)
        assert [name for name, _ in history][:2] == ["BENCH_5.json", "BENCH_6.json"]
        rows = [history_row(name, payload) for name, payload in history]
        assert history_regressions(rows) == []

    def test_placement_floor_override_still_works(self):
        from repro.experiments.bench import history_regressions

        row = {"name": "BENCH_9.json", "placement_cand_per_s": 2000.0}
        assert history_regressions([row]) == []
        assert len(history_regressions([row], floor=5000.0)) == 1


def test_render_suite_mentions_every_benchmark():
    entry = {
        "fast": {"wall_s": 1.0, "candidates_per_s": 200.0, "points_per_s": 20.0},
        "target": "fig08",
    }
    payload = {
        "schema": BENCH_SCHEMA,
        "git_sha": "abc",
        "results": {
            "placement_theta": entry,
            "placement_mira": entry,
            "tune": entry,
            "run_all": {
                "wall_s": 1.5,
                "experiments": 21,
                "scale": 8.0,
                "all_checks_pass": True,
            },
        },
    }
    text = render_suite(payload)
    for needle in ("placement/theta", "placement/mira", "tune/fig08", "run-all"):
        assert needle in text
