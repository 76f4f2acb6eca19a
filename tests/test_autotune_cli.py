"""Tests for the ``repro tune`` CLI surface."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenario.registry import get_scenario

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCENARIO = EXAMPLES_DIR / "scenarios" / "theta_hacc_tapioca.json"

#: Quick tune of a registered scenario at smoke scale (200 points).
QUICK = ["tune", "fig08", "--scale", "8"]


class TestTuneTargets:
    def test_tune_registered_scenario(self, capsys):
        assert main(QUICK) == 0
        output = capsys.readouterr().out
        assert "tuned fig08 over all 200 points" in output
        assert "proven optimum bandwidth:" in output

    def test_tune_scenario_json_file(self, capsys):
        code = main(["tune", str(EXAMPLE_SCENARIO), "--scale", "8"])
        assert code == 0
        output = capsys.readouterr().out
        assert "tuned theta-hacc-tapioca over all" in output

    def test_scale_rescales_a_scenario_file(self, tmp_path, capsys):
        # The 64-node example tunes on 16 nodes at --scale 4.
        code = main(["tune", str(EXAMPLE_SCENARIO), "--scale", "4", "--out", str(tmp_path)])
        assert code == 0
        trace = json.loads((tmp_path / "theta-hacc-tapioca.tuning.json").read_text())
        assert {point["num_nodes"] for point in trace["points"]} == {16}

    @pytest.mark.parametrize("flag", ["--strategy", "--budget", "--seed"])
    def test_search_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "fig08", flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_oversized_space_exits_2_before_evaluating(self, tmp_path, capsys):
        pair = get_scenario("tuning_interference_aware", scale=8)
        job = pair.multijob.jobs[0]
        eight = pair.with_overrides(
            {
                "machine.num_nodes": 8 * job.num_nodes,
                "multijob.jobs": tuple(replace(job, name=f"J{i}") for i in range(8)),
            }
        )
        deck = tmp_path / "eight_jobs.json"
        deck.write_text(json.dumps(eight.to_dict()), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", str(deck), "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "196,608 points" in capsys.readouterr().err
        assert not (tmp_path / "tuning-points").exists()

    def test_tune_unknown_target_has_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "fig8O"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert ".json file path" in err

    def test_tune_missing_file_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "no/such/file.json"])
        assert excinfo.value.code == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_tune_malformed_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", str(bad)])
        assert excinfo.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_tune_multijob_scenario_uses_slowdown_objective(self, capsys):
        code = main(["tune", "tuning_interference_aware", "--scale", "8"])
        assert code == 0
        output = capsys.readouterr().out
        assert "objective: slowdown [min]" in output
        assert "multijob.jobs.0.storage.ost_start" in output


class TestTuneOverrides:
    def test_set_on_searched_field_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*QUICK, "--set", "storage.stripe_count=8"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot override searched field" in err
        assert "storage.stripe_count" in err

    def test_set_with_typo_has_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*QUICK, "--set", "workload.bytes_per_rnk=1048576"])
        assert excinfo.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_set_on_unsearched_field_takes_effect(self, capsys):
        assert main([*QUICK]) == 0
        stock = capsys.readouterr().out
        assert main([*QUICK, "--set", "workload.bytes_per_rank=4194304"]) == 0
        modified = capsys.readouterr().out
        assert stock != modified


class TestTuneArtifacts:
    def test_out_writes_trace_and_point_cache(self, tmp_path, capsys):
        assert main([*QUICK, "--out", str(tmp_path)]) == 0
        trace_path = tmp_path / "fig08.tuning.json"
        assert trace_path.is_file()
        payload = json.loads(trace_path.read_text())
        assert payload["target"] == "fig08"
        assert payload["schema"] == 2
        assert len(payload["points"]) == 200
        assert payload["best_value"] > 0
        assert list((tmp_path / "tuning-points").glob("*.json"))

    def test_resumed_tune_serves_cache_hits(self, tmp_path, capsys):
        assert main([*QUICK, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([*QUICK, "--out", str(tmp_path)]) == 0
        assert "0 evaluated, 200 cache hits" in capsys.readouterr().out

    def test_report_from_store_includes_the_trace(self, tmp_path, capsys):
        assert (
            main(["run-all", "--experiment", "fig10", "--scale", "8", "--out",
                  str(tmp_path)]) == 0
        )
        assert main([*QUICK, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        assert main(["report", "--from", str(tmp_path), "-o", str(report_path)]) == 0
        text = report_path.read_text()
        assert "## fig10:" in text
        assert "## tuning trace: fig08" in text
        assert "*Proven optimum:*" in text
        assert "fig08: 10 best of 200 points" in text

    def test_report_names_a_trace_of_an_old_schema(self, tmp_path, capsys):
        assert (
            main(["run-all", "--experiment", "fig10", "--scale", "8", "--out",
                  str(tmp_path)]) == 0
        )
        old = {"schema": 1, "target": "fig08", "strategy": "random", "points": []}
        (tmp_path / "fig08.tuning.json").write_text(json.dumps(old))
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        assert main(["report", "--from", str(tmp_path), "-o", str(report_path)]) == 0
        err = capsys.readouterr().err
        assert "skipped fig08.tuning.json: tuning trace schema 1, expected 2" in err
        assert "## tuning trace" not in report_path.read_text()

    def test_tune_jobs_parallel_matches_sequential_best(self, tmp_path, capsys):
        def stable_lines(text: str) -> list[str]:
            # Drop the wall-time line; only the timing may differ.
            return [line for line in text.splitlines() if " points: " not in line]

        assert main([*QUICK]) == 0
        sequential = capsys.readouterr().out
        assert main([*QUICK, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert stable_lines(sequential) == stable_lines(parallel)
