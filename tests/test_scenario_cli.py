"""Tests for the scenario-facing CLI surface (`repro scenario ...`, `--set`,
`repro list --json`, did-you-mean experiment-id validation)."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenario import Scenario

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCENARIO = EXAMPLES_DIR / "scenarios" / "theta_hacc_tapioca.json"


class TestListJson:
    def test_list_json_emits_id_description_mapping(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fig10"].startswith("Fig. 10")
        assert "interference_theta_ost" in payload

    def test_list_json_matches_human_table_ids(self, capsys):
        main(["list", "--json"])
        ids = set(json.loads(capsys.readouterr().out))
        main(["list"])
        table_ids = {
            line.split()[0] for line in capsys.readouterr().out.strip().splitlines()
        }
        assert ids == table_ids


class TestDidYouMean:
    def test_run_unknown_experiment_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig13x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig13" in err

    def test_run_all_unknown_experiment_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", "--experiment", "interference_theta"])
        assert excinfo.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_report_unknown_experiment_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--experiment", "talbe1"])
        assert excinfo.value.code == 2
        assert "did you mean" in capsys.readouterr().err


class TestSetOverrides:
    def test_run_with_override_changes_the_result(self, capsys):
        main(["run", "table1", "--scale", "32"])
        stock = capsys.readouterr().out
        main(["run", "table1", "--scale", "32", "--set", "io.num_aggregators=8"])
        detuned = capsys.readouterr().out
        assert stock != detuned

    def test_run_with_unknown_override_key_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--scale", "32", "--set", "io.bufsize=1"])
        assert excinfo.value.code == 2
        assert "no field" in capsys.readouterr().err

    def test_run_with_malformed_override_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--set", "io.buffer_size"])
        assert excinfo.value.code == 2
        assert "dotted.key=value" in capsys.readouterr().err


class TestScenarioCommands:
    def test_scenario_list_names_the_figure_scenarios(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        assert "fig10" in output
        assert "interference_theta_ost/shared" in output

    def test_scenario_show_round_trips_through_from_json(self, capsys):
        assert main(["scenario", "show", "fig10", "--scale", "16"]) == 0
        scenario = Scenario.from_json(capsys.readouterr().out)
        assert scenario.id == "fig10"
        assert scenario.machine.num_nodes == 32

    def test_scenario_show_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "show", "fig1O"])
        assert excinfo.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_scenario_run_example_file(self, capsys):
        assert main(["scenario", "run", str(EXAMPLE_SCENARIO)]) == 0
        output = capsys.readouterr().out
        assert "theta-hacc-tapioca" in output
        assert "TAPIOCA" in output

    def test_scenario_run_missing_file_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "no/such/file.json"])
        assert excinfo.value.code == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_scenario_run_reproduces_identical_result(self, tmp_path, capsys):
        """A shown scenario rerun from its JSON yields the identical result."""
        main(["scenario", "show", "fig13", "--scale", "16"])
        scenario_file = tmp_path / "fig13.json"
        scenario_file.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["scenario", "run", str(scenario_file), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["scenario", "run", str(scenario_file), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["series"][0]["points"][0]["bandwidth_gbps"] > 0

    def test_scenario_run_set_switches_method(self, tmp_path, capsys):
        main(["scenario", "show", "fig10", "--scale", "16"])
        scenario_file = tmp_path / "fig10.json"
        scenario_file.write_text(capsys.readouterr().out, encoding="utf-8")
        main(["scenario", "run", str(scenario_file), "--set", "io.kind=mpiio", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"][0]["label"] == "MPI I/O"

    def test_scenario_run_multijob(self, tmp_path, capsys):
        main(["scenario", "show", "interference_theta_ost/shared", "--scale", "8"])
        scenario_file = tmp_path / "shared.json"
        scenario_file.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["scenario", "run", str(scenario_file)]) == 0
        output = capsys.readouterr().out
        assert "per-job slowdown" in output
        assert "conserves bandwidth" in output


class TestScenarioRunByName:
    def test_run_registered_name_matches_shown_json(self, tmp_path, capsys):
        """`scenario run NAME` equals the show | edit-nothing | run round-trip."""
        assert main(["scenario", "run", "fig10", "--scale", "16", "--json"]) == 0
        by_name = json.loads(capsys.readouterr().out)
        main(["scenario", "show", "fig10", "--scale", "16"])
        scenario_file = tmp_path / "fig10.json"
        scenario_file.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["scenario", "run", str(scenario_file), "--json"]) == 0
        by_file = json.loads(capsys.readouterr().out)
        assert by_name == by_file

    def test_run_registered_multijob_name(self, capsys):
        code = main(
            ["scenario", "run", "interference_theta_ost/shared", "--scale", "8"]
        )
        assert code == 0
        assert "per-job slowdown" in capsys.readouterr().out

    def test_run_unknown_name_has_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "fig1O"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert ".json file path" in err

    @pytest.mark.parametrize(
        "overrides,nodes", [({}, 16), ({"machine.num_nodes": 32}, 32)]
    )
    def test_scale_rescales_a_file_as_evaluate_does(self, overrides, nodes, capsys):
        """`--scale` divides a file's node counts, as `tune` and `evaluate`
        do (the 64-node example runs on 16 nodes at `--scale 4`), and a
        `--set` then pins a field of the rescaled scenario."""
        from repro.core.api import evaluate

        sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
        code = main(
            ["scenario", "run", str(EXAMPLE_SCENARIO), "--scale", "4", "--json", *sets]
        )
        assert code == 0
        by_cli = json.loads(capsys.readouterr().out)
        payload = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
        evaluation = evaluate(payload, scale=4, overrides=overrides)
        assert evaluation.scenario.machine.num_nodes == nodes
        assert by_cli == evaluation.result.to_dict()

    def test_run_name_accepts_set_overrides(self, capsys):
        code = main(
            ["scenario", "run", "fig10", "--scale", "16", "--set",
             "io.kind=mpiio", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"][0]["label"] == "MPI I/O"


class TestCustomScenarioExample:
    def test_example_runs_and_prints_valid_json(self, capsys):
        script = EXAMPLES_DIR / "custom_scenario.py"
        old_argv = sys.argv
        sys.argv = [str(script), "32"]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = old_argv
        output = capsys.readouterr().out
        json_text = output.split("Scenario JSON (feed this to `repro scenario run`):")[
            1
        ].split("Sweeping")[0]
        assert Scenario.from_json(json_text).id == "custom-hacc-theta"
        assert "GBps" in output
