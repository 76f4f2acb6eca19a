"""Command-line interface for the TAPIOCA reproduction.

Usage (after ``pip install -e .``)::

    python -m repro list                       # list reproducible experiments
    python -m repro list --json                # machine-readable {id: description}
    python -m repro run fig13                  # reproduce one figure/table
    python -m repro run fig13 --scale 8        # reduced-scale quick run
    python -m repro run fig13 --set io.buffer_size=8388608   # scenario override
    python -m repro run-all --jobs 4 --out artifacts/   # parallel sweep + JSON artifacts
    python -m repro report --from artifacts/ -o EXPERIMENTS.md  # render the report
    python -m repro scenario list              # named base scenarios
    python -m repro scenario show fig10        # export a scenario as JSON
    python -m repro scenario run my.json       # run a scenario JSON file
    python -m repro scenario run fig10 --scale 8   # ...or a registered name
    python -m repro tune fig08 --out artifacts/  # evaluate the whole tuning space
                                               # and certify its optimum
    python -m repro serve --port 8731 --out artifacts/ --jobs 4
                                               # HTTP evaluation daemon
    python -m repro submit fig08 --scale 16    # evaluate through a running daemon
    python -m repro profile fig08 --scale 8    # per-phase time breakdown
    python -m repro run fig08 --trace t.json   # ...any run with a Chrome trace
    python -m repro figures --all --from artifacts/ --out figures/
                                               # paper figures + deviation report
    python -m repro diff-artifacts artifacts/ artifacts-b/ --ignore wall_time_s
                                               # CI's byte-identity check

``run``, ``run-all``, ``tune`` and ``serve`` accept ``--trace FILE``: the
observability recorder (:mod:`repro.obs`) is enabled for the process and a
Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``) is
written on exit.  Tracing never changes simulated results — only host-side
clocks and tallies are recorded.

Every ``--out`` (and the ``--from`` of ``report`` and ``figures``) accepts
a store spec, not just a directory: ``DIR`` or ``dir:DIR`` (the historical
flat layout) or ``sqlite:FILE.db`` (a single SQLite file, safe for
concurrent writers).  ``run``, ``run-all``, ``tune``, ``scenario run`` and
``serve`` all share the same cache through whichever backend the spec
names; ``report`` and ``figures`` only ever read it.

The CLI only wraps functionality available from the library
(:mod:`repro.experiments`, :mod:`repro.scenario`, :mod:`repro.core`); it
exists so the figures can be regenerated — and new scenarios explored, e.g.
``scenario run fig13 --set io.kind=mpiio`` — without writing any Python.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from repro.autotune.defaults import as_tunable, suggest_space
from repro.autotune.objectives import OBJECTIVES
from repro.autotune.space import AutotuneError
from repro.autotune.tuner import rescale_scenario, tune
from repro.core.api import evaluate
from repro.experiments.harness import (
    describe_experiments,
    list_experiments,
    unknown_experiment_message,
)
from repro.experiments.report import generate_report_from_store
from repro.experiments.runner import RunOutcome, run_experiments, shutdown_pool
from repro.experiments.store import ArtifactStore, git_sha
from repro.scenario.registry import describe_scenarios, get_scenario
from repro.scenario.spec import Scenario, ScenarioError, parse_overrides


def _experiment_id(text: str) -> str:
    """Argparse type for experiment ids: validated with a did-you-mean hint."""
    if text in list_experiments():
        return text
    raise argparse.ArgumentTypeError(unknown_experiment_message(text))


def _positive_scale(text: str) -> float:
    """Argparse type for ``--scale``: a strictly positive, finite divisor."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--scale must be a number, got {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"--scale must be > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


# --------------------------------------------------------------------------- #
# Shared options: --scale, --jobs, --out, --set mean the same thing on every
# subcommand that has them (run, run-all, scenario run, tune, serve).
# --------------------------------------------------------------------------- #


def add_scale_option(parser: argparse.ArgumentParser, help: str | None = None) -> None:
    parser.add_argument(
        "--scale",
        type=_positive_scale,
        default=1.0,
        help=help or "node-count divisor (> 0)",
    )


def add_jobs_option(parser: argparse.ArgumentParser, help: str | None = None) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=help or "worker processes (1 = in-process)",
    )


def add_out_option(parser: argparse.ArgumentParser, help: str | None = None) -> None:
    parser.add_argument(
        "--out",
        default=None,
        metavar="SPEC",
        help=help
        or "artifact store: a directory, dir:DIR, or sqlite:FILE.db",
    )


def add_set_option(parser: argparse.ArgumentParser, help: str | None = None) -> None:
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=help
        or "override a scenario field by dotted path "
        "(e.g. --set io.buffer_size=8388608); may be repeated",
    )


def add_trace_option(parser: argparse.ArgumentParser, help: str | None = None) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=help
        or "record metrics and timing spans, writing a Chrome trace-event "
        "JSON (Perfetto-loadable) to FILE on exit",
    )


def _open_store(
    parser: argparse.ArgumentParser, spec: str | None, option: str = "--out"
) -> ArtifactStore | None:
    """An :class:`ArtifactStore` for a store spec (``None`` passes through)."""
    if spec is None:
        return None
    try:
        return ArtifactStore.from_spec(spec)
    except (ValueError, OSError) as error:
        parser.error(f"{option}: {error}")


def _cmd_list(args: argparse.Namespace) -> int:
    descriptions = describe_experiments()
    if args.json:
        print(json.dumps(descriptions, indent=2))
        return 0
    width = max(len(experiment_id) for experiment_id in descriptions)
    for experiment_id, description in descriptions.items():
        print(f"{experiment_id:<{width}}  {description}")
    return 0


def _parse_set_args(parser: argparse.ArgumentParser, pairs: list[str] | None) -> dict:
    """Parse ``--set`` pairs, exiting with a usage error on malformed input."""
    try:
        return parse_overrides(pairs)
    except ScenarioError as error:
        parser.error(str(error))


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = _parse_set_args(args.parser, args.set)
    store = _open_store(args.parser, args.out)
    try:
        evaluation = evaluate(
            args.experiment,
            scale=args.scale,
            jobs=args.jobs,
            store=store,
            overrides=overrides,
        )
    except ScenarioError as error:
        args.parser.error(str(error))
    result = evaluation.result
    print(result.render())
    if evaluation.cached:
        print("(served from the artifact cache; pass --out elsewhere to re-run)")
    return 0 if result.all_checks_pass() else 1


def _warn_stale_artifacts(store: ArtifactStore) -> None:
    """Warn when cached artifacts were produced by a different commit.

    The cache is keyed on ``(experiment_id, scale)`` only, so code changes
    do not invalidate it; surface the provenance gap instead of silently
    serving results from older code.
    """
    try:
        recorded = store.read_manifest().get("git_sha")
    except (OSError, ValueError):
        return
    current = git_sha()
    if recorded and current and recorded != current:
        print(
            f"warning: artifacts in {store.root} were produced at commit "
            f"{recorded[:12]} (HEAD is {current[:12]}); pass --no-cache to re-run",
            file=sys.stderr,
        )


def _cmd_run_all(args: argparse.Namespace) -> int:
    overrides = _parse_set_args(args.parser, args.set)
    store = _open_store(args.parser, args.out)
    if store is not None and not args.no_cache:
        _warn_stale_artifacts(store)

    def show(outcome: RunOutcome) -> None:
        status = "PASS" if outcome.result.all_checks_pass() else "FAIL"
        source = "cached" if outcome.cached else f"{outcome.wall_time_s:6.2f}s"
        print(f"[{status}] {outcome.experiment_id:<22} {source}")

    try:
        report = run_experiments(
            args.experiments,
            scale=args.scale,
            jobs=args.jobs,
            store=store,
            use_cache=not args.no_cache,
            fail_fast=args.fail_fast,
            on_outcome=show,
            overrides=overrides,
        )
    except ScenarioError as error:
        args.parser.error(str(error))
    ran, hits, failed = report.executed(), report.cache_hits(), report.failed()
    print(
        f"{len(report.outcomes)} experiments: {len(ran)} ran, "
        f"{len(hits)} cache hits, {len(failed)} failed checks "
        f"({report.timing_summary()})"
    )
    if store is not None:
        print(f"artifacts in {store.root} (manifest: {store.manifest_path})")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render EXPERIMENTS.md from stored artifacts (never re-simulates)."""
    store = _open_store(args.parser, args.from_spec, "--from")
    try:
        report = generate_report_from_store(
            store,
            ids=args.experiments,
            on_skip=lambda message: print(message, file=sys.stderr),
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.output}")
    return 0


# --------------------------------------------------------------------------- #
# Scenario subcommands
# --------------------------------------------------------------------------- #


def _cmd_scenario_list(_args: argparse.Namespace) -> int:
    descriptions = describe_scenarios()
    width = max(len(name) for name in descriptions)
    for name, description in sorted(descriptions.items()):
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    try:
        scenario = get_scenario(args.name, scale=args.scale)
    except KeyError as error:
        args.parser.error(str(error.args[0]))
    print(scenario.to_json())
    return 0


def _is_scenario_file(source: str) -> bool:
    """Whether a scenario argument names a JSON file rather than a registry
    entry.  Registered names may contain ``/`` (``interference_theta_ost/
    shared``), so only a ``.json`` suffix or a path that actually exists —
    including non-regular files like ``/dev/stdin`` — counts as a file.
    """
    return source.endswith(".json") or Path(source).exists()


def _read_scenario_file(parser: argparse.ArgumentParser, source: str) -> Scenario:
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        parser.error(f"cannot read scenario file: {error}")
    try:
        return Scenario.from_json(text)
    except ScenarioError as error:
        parser.error(str(error))


def _registry_scenario(
    parser: argparse.ArgumentParser, name: str, scale: float
) -> Scenario:
    try:
        return get_scenario(name, scale=scale)
    except KeyError as error:
        parser.error(
            f"{error.args[0]} (pass a registered scenario name or a .json "
            f"file path)"
        )


def _resolve_scenario_source(
    parser: argparse.ArgumentParser, source: str, scale: float
) -> Scenario:
    """A concrete scenario from a CLI source: a JSON file or a registry name.

    ``--scale`` divides node counts either way: a registry builder applies
    it, and a file is rescaled with
    :func:`~repro.autotune.tuner.rescale_scenario`, as ``evaluate`` does.
    """
    if not _is_scenario_file(source):
        return _registry_scenario(parser, source, scale)
    scenario = _read_scenario_file(parser, source)
    try:
        return rescale_scenario(scenario, scale)
    except ScenarioError as error:
        parser.error(str(error))


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    overrides = _parse_set_args(args.parser, args.set)
    store = _open_store(args.parser, args.out)
    scenario = _resolve_scenario_source(args.parser, args.source, args.scale)
    try:
        evaluation = evaluate(
            scenario, jobs=args.jobs, store=store, overrides=overrides
        )
    except ScenarioError as error:
        args.parser.error(str(error))
    result = evaluation.result
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
        if evaluation.cached:
            print("(served from the scenario cache; delete the store to re-run)")
    return 0 if result.all_checks_pass() else 1


# --------------------------------------------------------------------------- #
# Autotuning
# --------------------------------------------------------------------------- #


def _cmd_tune(args: argparse.Namespace) -> int:
    overrides = _parse_set_args(args.parser, args.set)
    store = _open_store(args.parser, args.out)
    raw = _resolve_scenario_source(args.parser, args.target, args.scale)
    try:
        base = as_tunable(raw.with_overrides(overrides))
        space = suggest_space(base)
        space.reject_overrides(overrides)
        trace = tune(base, space, args.objective, store=store, jobs=args.jobs)
    except (ScenarioError, AutotuneError) as error:
        args.parser.error(str(error))
    print(trace.summary())
    if store is not None:
        print(f"trace written to {store.tuning_trace_path(base.id)}")
    if trace.best_point() is None:
        print("error: no valid point in the tuning space", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation daemon until interrupted (SIGINT) or terminated
    (SIGTERM); either way the worker pool is shut down before exiting."""
    import asyncio
    import signal

    from repro.serve import EvaluationService, HttpFrontend

    store = _open_store(args.parser, args.out)

    async def main() -> None:
        service = EvaluationService(
            store, jobs=args.jobs, batch_window_s=args.batch_window
        )
        frontend = HttpFrontend(service, host=args.host, port=args.port)
        await frontend.start()
        where = f"http://{frontend.host}:{frontend.port}"
        backing = store.backend.describe() if store else "no store (dedup only)"
        print(f"serving on {where} [{backing}, jobs={args.jobs}]", flush=True)
        # SIGTERM's default action would end the process without exit hooks,
        # leaving the pool's workers running.
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        try:
            await stop.wait()
        finally:
            await frontend.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        shutdown_pool()
    print("shutting down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one scenario to a running daemon and print its result."""
    from repro.experiments.results import ExperimentResult
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    overrides = _parse_set_args(args.parser, args.set)
    scenario = _resolve_scenario_source(args.parser, args.source, args.scale)
    try:
        payload = scenario.with_overrides(overrides).to_dict()
    except ScenarioError as error:
        args.parser.error(str(error))
    try:
        envelope = ServeClient(args.url, timeout_s=args.timeout).evaluate(payload)
    except (ServeError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if envelope.get("status") != "ok":
        print(f"error: {envelope.get('error', 'unknown failure')}", file=sys.stderr)
        return 1
    result = ExperimentResult.from_dict(envelope["result"])
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(result.render())
        source = "cache" if envelope.get("cached") else "fresh evaluation"
        print(f"({source}, hash {envelope.get('scenario_hash', '?')[:12]})")
    return 0 if result.all_checks_pass() else 1


# --------------------------------------------------------------------------- #
# Reporting: paper figures, artifact diffing
# --------------------------------------------------------------------------- #


def _cmd_figures(args: argparse.Namespace) -> int:
    """Render paper figures as CSV (+ plots) straight from stored artifacts."""
    from repro.reporting import render_figures
    from repro.reporting.figures import FIGURES, resolve_figure_ids

    if not args.figures and not args.all:
        args.parser.error(
            f"name at least one figure or pass --all "
            f"(figures: {', '.join(FIGURES)})"
        )
    try:
        ids = resolve_figure_ids([] if args.all else args.figures)
    except KeyError as error:
        args.parser.error(str(error.args[0]))
    store = _open_store(args.parser, args.from_spec, "--from")
    report = render_figures(store, ids, args.out)
    print(report.summary())
    if report.skipped:
        print(
            f"error: no stored artifact for: {', '.join(report.skipped)} "
            f"(run `repro run-all --out {args.from_spec}` first; figures "
            f"never re-simulate)",
            file=sys.stderr,
        )
        return 1
    if args.check and not report.passed():
        print(
            "error: deviation beyond documented tolerance "
            f"(see {report.report_path})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_diff_artifacts(args: argparse.Namespace) -> int:
    """Compare two artifact directories, ignoring the given envelope keys."""
    from repro.experiments.diff import compare_artifact_dirs, comparable_artifact_names

    for directory in (args.dir_a, args.dir_b):
        if not Path(directory).is_dir():
            args.parser.error(f"not a directory: {directory}")
    compared = len(comparable_artifact_names(args.dir_a))
    if not compared and not comparable_artifact_names(args.dir_b):
        # Two empty sweeps are not "identical": a run that wrote nothing
        # must not pass a byte-identity gate.
        print("error: no artifacts to compare", file=sys.stderr)
        return 1
    problems = compare_artifact_dirs(
        args.dir_a, args.dir_b, ignore=tuple(args.ignore or ())
    )
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    ignored = ", ".join(args.ignore or ()) or "nothing"
    print(f"{compared} artifacts identical (ignoring {ignored})")
    return 0


#: How the cost model's phase counters map onto the paper's terms: C1 is the
#: network aggregation cost, C2 the storage write cost (Section IV of
#: TAPIOCA, CLUSTER'17); overhead covers aggregator election + collectives,
#: and overlapped is the pipelined portion hidden behind C1/C2.
_PROFILE_PHASES = (
    ("aggregation", "C1: network aggregation"),
    ("io", "C2: storage write"),
    ("overhead", "election + collectives"),
    ("overlapped", "pipelined overlap"),
)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one experiment under the recorder and print a time breakdown.

    Two tables: the cost model's own predicted phase seconds (the paper's
    C1/C2 terms plus overheads, summed over every estimate the run made)
    and the host-side wall seconds of the instrumented spans, followed by
    the run's headline counters.
    """
    from repro.obs.recorder import collecting

    overrides = _parse_set_args(args.parser, args.set)
    with collecting(args.trace) as rec:
        try:
            evaluation = evaluate(
                args.experiment, scale=args.scale, jobs=1, overrides=overrides
            )
        except ScenarioError as error:
            args.parser.error(str(error))
        spans = rec.span_seconds()
        counters: dict[tuple[str, tuple], float] = {}
        for metric in rec.metrics():
            snap = metric.snapshot()
            if snap["kind"] == "counter":
                labels = tuple(sorted(snap["labels"].items()))
                counters[(snap["name"], labels)] = snap["value"]
        trace_path = rec.flush()

    def counter(name: str, **labels: str) -> float:
        return counters.get((name, tuple(sorted(labels.items()))), 0.0)

    print(f"profile: {args.experiment} (scale {args.scale:g})")
    estimates = counter("model.estimates")
    print(
        f"\nmodel-predicted phase seconds "
        f"(summed over {estimates:.0f} cost-model estimates):"
    )
    model_total = sum(
        counter("model.phase_seconds", phase=phase) for phase, _ in _PROFILE_PHASES
    )
    for phase, paper_term in _PROFILE_PHASES:
        seconds = counter("model.phase_seconds", phase=phase)
        share = 100.0 * seconds / model_total if model_total else 0.0
        print(f"  {phase:<12} {paper_term:<26} {seconds:>10.4f} s  {share:5.1f}%")

    print("\nhost-side span seconds (wall time of the instrumented phases):")
    for name in sorted(spans, key=spans.get, reverse=True):
        print(f"  {name:<40} {spans[name]:>10.4f} s")

    print("\ncounters:")
    for (name, labels), value in sorted(counters.items()):
        if name in ("model.phase_seconds",):
            continue
        suffix = (
            "{" + ",".join(f"{k}={v}" for k, v in labels) + "}" if labels else ""
        )
        print(f"  {name + suffix:<44} {value:>14,.0f}")

    if trace_path:
        print(f"\ntrace written to {trace_path}")
    return 0 if evaluation.result.all_checks_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="TAPIOCA (CLUSTER 2017) reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list reproducible experiments")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit {id: description} as JSON for tooling",
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="reproduce one figure/table")
    run_parser.add_argument(
        "experiment", type=_experiment_id, metavar="EXPERIMENT"
    )
    add_scale_option(run_parser)
    add_jobs_option(run_parser)
    add_out_option(
        run_parser, help="artifact store to read/write the cached result"
    )
    add_set_option(run_parser)
    add_trace_option(run_parser)
    run_parser.set_defaults(func=_cmd_run, parser=run_parser)

    run_all_parser = subparsers.add_parser(
        "run-all", help="reproduce every figure/table, optionally in parallel"
    )
    add_scale_option(run_all_parser)
    add_jobs_option(run_all_parser)
    add_out_option(
        run_all_parser,
        help="artifact store for per-experiment JSON + manifest "
        "(a directory, dir:DIR, or sqlite:FILE.db)",
    )
    run_all_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="re-run experiments even when a matching artifact exists",
    )
    run_all_parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop scheduling new experiments after the first failed check",
    )
    run_all_parser.add_argument(
        "--experiment",
        action="append",
        dest="experiments",
        type=_experiment_id,
        metavar="EXPERIMENT",
        help="run only the given experiment id(s); may be repeated",
    )
    add_set_option(
        run_all_parser,
        help="scenario override applied to every experiment; may be repeated",
    )
    add_trace_option(run_all_parser)
    run_all_parser.set_defaults(func=_cmd_run_all, parser=run_all_parser)

    report_parser = subparsers.add_parser(
        "report", help="render EXPERIMENTS.md from stored artifacts"
    )
    report_parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    report_parser.add_argument(
        "--from",
        dest="from_spec",
        required=True,
        metavar="SPEC",
        help="artifact store to render from (a directory, dir:DIR, or "
        "sqlite:FILE.db); the report never re-simulates",
    )
    report_parser.add_argument(
        "--experiment",
        action="append",
        dest="experiments",
        type=_experiment_id,
        metavar="EXPERIMENT",
        help="report only the given experiment id(s); may be repeated",
    )
    report_parser.set_defaults(func=_cmd_report, parser=report_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="declarative scenarios: list, export, run from JSON"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser("list", help="list named base scenarios")
    scenario_list.set_defaults(func=_cmd_scenario_list, parser=scenario_list)

    scenario_show = scenario_sub.add_parser(
        "show", help="print a named scenario as JSON (pipe to a file, edit, run)"
    )
    scenario_show.add_argument("name", metavar="NAME")
    add_scale_option(scenario_show)
    scenario_show.set_defaults(func=_cmd_scenario_show, parser=scenario_show)

    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario: a JSON file or a registered name"
    )
    scenario_run.add_argument(
        "source",
        metavar="SCENARIO",
        help="a scenario JSON file, or a registered scenario name "
        "(see `repro scenario list`)",
    )
    add_scale_option(scenario_run)
    add_jobs_option(scenario_run)
    add_out_option(
        scenario_run,
        help="artifact store for the content-hash scenario cache "
        "(shared with `repro serve`)",
    )
    add_set_option(scenario_run)
    scenario_run.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment result as JSON instead of a table",
    )
    scenario_run.set_defaults(func=_cmd_scenario_run, parser=scenario_run)

    tune_parser = subparsers.add_parser(
        "tune",
        help="evaluate a scenario's whole tuning space and certify its optimum",
    )
    tune_parser.add_argument(
        "target",
        metavar="TARGET",
        help="a registered scenario/experiment name or a scenario JSON file",
    )
    tune_parser.add_argument(
        "--objective",
        choices=sorted(OBJECTIVES),
        default=None,
        help="optimisation target (default: slowdown for multi-job "
        "scenarios, bandwidth otherwise)",
    )
    add_jobs_option(
        tune_parser, help="worker processes for candidate evaluation (1 = in-process)"
    )
    add_scale_option(tune_parser)
    add_out_option(
        tune_parser,
        help="artifact store for the tuning trace and the per-point "
        "cache (a re-run skips every point already evaluated)",
    )
    add_set_option(
        tune_parser,
        help="pin a scenario field by dotted path before tuning; "
        "searched fields cannot be pinned; may be repeated",
    )
    add_trace_option(tune_parser)
    tune_parser.set_defaults(func=_cmd_tune, parser=tune_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="HTTP evaluation daemon over one shared cache",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8731,
        help="bind port; 0 picks a free one (default: 8731)",
    )
    add_jobs_option(
        serve_parser, help="worker processes for scenario batches (1 = in-process)"
    )
    add_out_option(
        serve_parser,
        help="artifact store backing the scenario cache; prefer "
        "sqlite:FILE.db when other writers share it",
    )
    serve_parser.add_argument(
        "--batch-window",
        type=float,
        default=0.01,
        metavar="SECONDS",
        help="how long to collect requests before dispatching a batch "
        "(default: 0.01)",
    )
    add_trace_option(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve, parser=serve_parser)

    submit_parser = subparsers.add_parser(
        "submit", help="evaluate one scenario through a running daemon"
    )
    submit_parser.add_argument(
        "source",
        metavar="SCENARIO",
        help="a scenario JSON file, or a registered scenario name "
        "(see `repro scenario list`)",
    )
    submit_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8731",
        help="daemon endpoint (default: http://127.0.0.1:8731)",
    )
    add_scale_option(submit_parser)
    add_set_option(submit_parser)
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long to wait for the evaluation (default: 600)",
    )
    submit_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full response envelope as JSON",
    )
    submit_parser.set_defaults(func=_cmd_submit, parser=submit_parser)

    figures_parser = subparsers.add_parser(
        "figures",
        help="render paper figures (CSV always, PNG/SVG with matplotlib) "
        "from stored artifacts, with deviations vs the digitised paper values",
    )
    figures_parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIG",
        help="figure ids to render (fig07..fig14, table1, headline)",
    )
    figures_parser.add_argument(
        "--all", action="store_true", help="render every registered figure"
    )
    figures_parser.add_argument(
        "--from",
        dest="from_spec",
        required=True,
        metavar="SPEC",
        help="artifact store to render from (a directory, dir:DIR, or "
        "sqlite:FILE.db); rendering never re-simulates",
    )
    figures_parser.add_argument(
        "--out",
        default="figures",
        metavar="DIR",
        help="output directory for CSV/plots and deviation_report.json "
        "(default: figures/)",
    )
    figures_parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any figure's RMS shape deviation exceeds its "
        "documented tolerance",
    )
    add_trace_option(figures_parser)
    figures_parser.set_defaults(func=_cmd_figures, parser=figures_parser)

    diff_parser = subparsers.add_parser(
        "diff-artifacts",
        help="compare two artifact directories' experiment envelopes "
        "(CI's byte-identity check)",
    )
    diff_parser.add_argument("dir_a", metavar="DIR_A")
    diff_parser.add_argument("dir_b", metavar="DIR_B")
    diff_parser.add_argument(
        "--ignore",
        action="append",
        metavar="KEY",
        help="top-level envelope key excluded from the comparison "
        "(e.g. wall_time_s); may be repeated",
    )
    diff_parser.set_defaults(func=_cmd_diff_artifacts, parser=diff_parser)

    profile_parser = subparsers.add_parser(
        "profile",
        help="run one experiment under the recorder and print a per-phase "
        "time breakdown (paper cost-model terms vs host wall time)",
    )
    profile_parser.add_argument(
        "experiment", type=_experiment_id, metavar="EXPERIMENT"
    )
    add_scale_option(profile_parser)
    add_set_option(profile_parser)
    add_trace_option(
        profile_parser,
        help="also write the run's Chrome trace-event JSON to FILE",
    )
    # The profile command owns its recorder (a fresh one per run), so the
    # shared --trace enable/flush in main() must not double-handle it.
    profile_parser.set_defaults(func=_cmd_profile, parser=profile_parser, own_trace=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    ``--trace FILE`` (on run, run-all, tune and serve) is handled here so
    every subcommand shares one lifecycle: enable the recorder before the
    command runs, flush the Chrome trace after it finishes — including on
    Ctrl-C against a daemon.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    own_trace = getattr(args, "own_trace", False)
    enabled_here = trace_path is not None and not own_trace
    if enabled_here:
        from repro.obs.recorder import enable

        enable(trace_path)
    try:
        return args.func(args)
    finally:
        # Flush whichever recorder is active — enabled above via --trace
        # or at import time via REPRO_TRACE=<file> — unless the command
        # manages its own recorder lifecycle (profile).  A recorder this
        # call enabled is torn down again so in-process callers (tests,
        # notebooks) do not leak tracing into later invocations.
        if not own_trace:
            from repro.obs.recorder import disable, recorder as _get_recorder

            rec = _get_recorder()
            if rec is not None:
                written = rec.flush()
                if written:
                    print(f"trace written to {written}", file=sys.stderr)
                if enabled_here:
                    disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
