"""Argparse-level tests: --out/--jobs/--scale/--set are uniform across
subcommands.

One table drives everything: which subcommand accepts which of the four
shared flags.  Where a flag exists it must parse identically — same type
coercion, same rejection of bad values, same defaults — so muscle memory
(and shell scripts) transfer between ``run``, ``run-all``, ``scenario
run``, ``tune``, and ``serve``.
"""

import pytest

from repro.cli import build_parser

#: command prefix -> flags the subcommand supports, with a valid base argv.
FLAG_TABLE = {
    ("run",): (["run", "fig07"], {"--scale", "--jobs", "--out", "--set"}),
    ("run-all",): (["run-all"], {"--scale", "--jobs", "--out", "--set"}),
    ("scenario", "run"): (
        ["scenario", "run", "fig08"],
        {"--scale", "--jobs", "--out", "--set"},
    ),
    ("tune",): (["tune", "fig08"], {"--scale", "--jobs", "--out", "--set"}),
    ("serve",): (["serve"], {"--jobs", "--out"}),
    ("submit",): (["submit", "fig08"], {"--scale", "--set"}),
}

WITH_SCALE = [k for k, (_, flags) in FLAG_TABLE.items() if "--scale" in flags]
WITH_JOBS = [k for k, (_, flags) in FLAG_TABLE.items() if "--jobs" in flags]
WITH_OUT = [k for k, (_, flags) in FLAG_TABLE.items() if "--out" in flags]
WITH_SET = [k for k, (_, flags) in FLAG_TABLE.items() if "--set" in flags]


def parse(argv):
    return build_parser().parse_args(argv)


class TestScaleFlag:
    @pytest.mark.parametrize("command", WITH_SCALE, ids="/".join)
    def test_accepts_positive_float(self, command):
        base, _ = FLAG_TABLE[command]
        args = parse([*base, "--scale", "8"])
        assert args.scale == 8.0 and isinstance(args.scale, float)

    @pytest.mark.parametrize("command", WITH_SCALE, ids="/".join)
    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "eight"])
    def test_rejects_non_positive(self, command, bad, capsys):
        base, _ = FLAG_TABLE[command]
        with pytest.raises(SystemExit) as excinfo:
            parse([*base, "--scale", bad])
        assert excinfo.value.code == 2
        assert "--scale" in capsys.readouterr().err

    @pytest.mark.parametrize("command", WITH_SCALE, ids="/".join)
    def test_defaults_to_one(self, command):
        base, _ = FLAG_TABLE[command]
        assert parse(base).scale == 1.0


class TestJobsFlag:
    @pytest.mark.parametrize("command", WITH_JOBS, ids="/".join)
    def test_accepts_positive_int(self, command):
        base, _ = FLAG_TABLE[command]
        assert parse([*base, "--jobs", "4"]).jobs == 4

    @pytest.mark.parametrize("command", WITH_JOBS, ids="/".join)
    @pytest.mark.parametrize("bad", ["0", "-2", "2.5", "many"])
    def test_rejects_non_positive(self, command, bad, capsys):
        base, _ = FLAG_TABLE[command]
        with pytest.raises(SystemExit) as excinfo:
            parse([*base, "--jobs", bad])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", WITH_JOBS, ids="/".join)
    def test_defaults_to_one(self, command):
        base, _ = FLAG_TABLE[command]
        assert parse(base).jobs == 1


class TestOutFlag:
    @pytest.mark.parametrize("command", WITH_OUT, ids="/".join)
    @pytest.mark.parametrize(
        "spec", ["artifacts", "dir:artifacts", "sqlite:cache.db"]
    )
    def test_accepts_backend_specs(self, command, spec):
        base, _ = FLAG_TABLE[command]
        assert parse([*base, "--out", spec]).out == spec

    @pytest.mark.parametrize("command", WITH_OUT, ids="/".join)
    def test_defaults_to_none(self, command):
        base, _ = FLAG_TABLE[command]
        assert parse(base).out is None


class TestSetFlag:
    @pytest.mark.parametrize("command", WITH_SET, ids="/".join)
    def test_repeats_accumulate(self, command):
        base, _ = FLAG_TABLE[command]
        args = parse(
            [*base, "--set", "io.buffer_size=8388608", "--set", "io.pipeline_depth=2"]
        )
        assert args.set == ["io.buffer_size=8388608", "io.pipeline_depth=2"]

    @pytest.mark.parametrize("command", WITH_SET, ids="/".join)
    def test_defaults_to_none(self, command):
        base, _ = FLAG_TABLE[command]
        assert parse(base).set is None


class TestTable:
    def test_every_listed_flag_is_accepted(self):
        """The table itself stays in sync with the parsers."""
        samples = {
            "--scale": ["--scale", "2"],
            "--jobs": ["--jobs", "2"],
            "--out": ["--out", "x"],
            "--set": ["--set", "a.b=1"],
        }
        for base, flags in FLAG_TABLE.values():
            argv = list(base)
            for flag in sorted(flags):
                argv.extend(samples[flag])
            parse(argv)  # must not SystemExit
