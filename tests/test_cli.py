"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    @pytest.mark.parametrize("scale", ["0", "-1", "-0.5", "nan", "inf", "nan-ish"])
    @pytest.mark.parametrize(
        "command",
        [["run", "fig10"], ["run-all"], ["scenario", "show", "fig10"]],
    )
    def test_rejects_non_positive_scale(self, command, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--scale", scale])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        assert "--scale" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig13" in output and "table1" in output

    def test_list_shows_one_line_descriptions(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        by_id = {line.split()[0]: line for line in lines}
        # Every line carries a description beyond the bare id.
        for line in lines:
            assert len(line.split(None, 1)) == 2, f"missing description: {line!r}"
        assert "interference_theta_ost" in by_id
        assert "shared vs disjoint" in by_id["interference_theta_ost"]
        assert "Fig. 13" in by_id["fig13"]

    def test_run_reduced_scale(self, capsys):
        assert main(["run", "fig10", "--scale", "16"]) == 0
        output = capsys.readouterr().out
        assert "TAPIOCA" in output and "PASS" in output

    def test_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            ["run-all", "--scale", "32", "--experiment", "fig07", "--out", str(store)]
        ) == 0
        output_file = tmp_path / "exp.md"
        assert main(["report", "--from", str(store), "-o", str(output_file)]) == 0
        assert "fig07" in output_file.read_text()

    def test_report_requires_a_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "--from" in capsys.readouterr().err

    def test_report_reads_a_sqlite_store(self, tmp_path, capsys):
        """``report --from`` opens store specs exactly like ``figures``."""
        spec = f"sqlite:{tmp_path / 'store.db'}"
        assert main(
            ["run-all", "--scale", "32", "--experiment", "fig10", "--out", spec]
        ) == 0
        output_file = tmp_path / "exp.md"
        assert main(["report", "--from", spec, "-o", str(output_file)]) == 0
        assert "## fig10" in output_file.read_text()
        # The prefix-less path to the .db file reopens the same store.
        assert main(
            ["report", "--from", str(tmp_path / "store.db"), "-o", str(output_file)]
        ) == 0
        assert "## fig10" in output_file.read_text()

    @pytest.mark.parametrize("spec", ["sqllite:x.db", "sharded:x"])
    def test_unknown_store_prefix_is_a_usage_error(
        self, tmp_path, monkeypatch, spec, capsys
    ):
        """A mistyped backend prefix must not silently create a directory."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig10", "--scale", "32", "--out", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--out:" in err and "sqlite:" in err
        assert list(tmp_path.iterdir()) == []
