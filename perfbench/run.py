"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
work twice, untraced and then with a span wrapper around each layer's
public functions, and reports the per-layer metrics plus the tracing
overhead; it also writes a Chrome trace and a per-layer table under
``.perfbench/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(ROOT))

from perfbench.measure import (  # noqa: E402
    CalibrationKernel,
    Calibrator,
    Sample,
    cpu_now,
    digest,
    peak_rss_mb,
    percentile,
    tail_percentile,
)
from perfbench.tracer import ENVELOPE_LAYERS, Tracer  # noqa: E402
from perfbench.workloads import BUILDERS, Outcome, clear_program_caches, units_for  # noqa: E402

WORKDIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUPS = 3


def _purge_program_modules() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, size: int, repeats: int, kernel: CalibrationKernel):
    """Build the workload's plan ``repeats`` times from a clean program import.

    Returns the last plan and one :class:`Sample` per set-up.  Program
    caches are dropped afterwards, so nothing is pre-warmed.
    """
    calibrator = Calibrator(kernel)
    samples = []
    plan = None
    for index in range(repeats):
        plan = None
        _purge_program_modules()
        wall, cpu = time.perf_counter(), cpu_now()
        # The whole program, including modules its entry points import lazily.
        importlib.import_module("repro.experiments.harness")
        plan = BUILDERS[workload](seed, size, WORKDIR)
        sample = Sample(f"setup#{index}", "setup", cpu_now() - cpu,
                        time.perf_counter() - wall, True, "")
        samples.append(sample)
        calibrator.add(sample)
        calibrator.flush()
    clear_program_caches()
    return plan, samples


def run_ops(plan, tracer: Tracer | None = None,
            kernel: CalibrationKernel | None = None) -> tuple[list[Sample], list]:
    """Run every op in order; returns the timed samples and the output records."""
    calibrator = Calibrator(kernel or CalibrationKernel())
    samples: list[Sample] = []
    records: list = []
    for index, op in enumerate(plan.ops):
        if op.before is not None:
            op.before()
        if tracer is not None:
            tracer.begin_op(index)
        error = None
        wall0, cpu0 = time.perf_counter(), cpu_now()
        try:
            output = op.call()
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        cpu1, wall1 = cpu_now(), time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                outcome = op.check(output)
            except Exception as exc:
                outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
            del output
        else:
            outcome = Outcome(False, error)
        sample = Sample(op.label, op.kind, cpu1 - cpu0, wall1 - wall0, outcome.ok, outcome.reason)
        samples.append(sample)
        calibrator.add(sample)
        records.append(outcome.record)
    calibrator.flush()
    return samples, records


def end_to_end_metrics(samples: list[Sample], setups: list[Sample]) -> dict[str, float]:
    cpu_ms = [sample.ref_cpu_s * 1000.0 for sample in samples]
    return {
        "setup_s": statistics.median(sample.ref_cpu_s for sample in setups),
        "wall_s": sum(sample.ref_wall_s for sample in samples),
        "cpu_s": sum(sample.ref_cpu_s for sample in samples),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": percentile(cpu_ms, 50),
        "op_tail_ms": percentile(cpu_ms, tail_percentile(len(cpu_ms)) or 50),
    }


def per_layer_metrics(
    tracer: Tracer, samples: list[Sample], untraced: list[Sample], declared: list[str]
) -> dict[str, float]:
    """Every declared per-layer metric: a tracer counter unless derived below."""
    counts = tracer.counts
    layer = tracer.layer_self_s()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {name: counts[name] for name in declared}
    for name in ("workloads", "partitioning", "placement", "machine", "perfmodel", "flows",
                 "storage", "contention", "multijob", "simmpi", "scenario", "results", "api"):
        values[f"{name}.self_s"] = layer.get(name, 0.0)
    values.update({
        "placement.candidates_per_s": ratio(
            counts["placement.candidates"], layer.get("placement", 0.0)
        ),
        "machine.hit_ratio": ratio(
            counts["machine.resolves"] - counts["machine.builds"], counts["machine.resolves"]
        ),
        "contention.memo_hit_ratio": ratio(
            counts["contention.allocations"] - counts["contention.solves"],
            counts["contention.allocations"],
        ),
        "simmpi.us_per_event": ratio(layer.get("simmpi", 0.0) * 1e6, counts["simmpi.events"]),
        "store.hit_ratio": ratio(counts["store.hits"], counts["store.reads"]),
        "store.read_self_s": tracer.function_self_s("store", "ArtifactStore.load_scenario_result"),
        "store.write_self_s": tracer.function_self_s(
            "store", "ArtifactStore.save_scenario_result"
        ),
        "trace.coverage": ratio(
            sum(s for name, s in layer.items() if name not in ENVELOPE_LAYERS),
            sum(sample.wall_s for sample in samples),
        ),
        "trace.overhead": ratio(
            sum(sample.ref_cpu_s for sample in samples),
            sum(sample.ref_cpu_s for sample in untraced),
        ),
    })
    return values


def layer_table(tracer: Tracer, samples: list[Sample]) -> list[dict]:
    """Self time and share of op wall time per layer, largest first."""
    op_wall = sum(sample.wall_s for sample in samples)
    layers = tracer.layer_self_s()
    layers["(no span)"] = max(0.0, op_wall - sum(layers.values()))
    rows = [
        {"layer": name, "self_s": seconds, "share": seconds / op_wall if op_wall else 0.0}
        for name, seconds in layers.items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def class_summary(samples: list[Sample]) -> dict:
    """Median and tail reference-CPU ms per op class, with sample counts."""
    summary = {}
    for kind in sorted({sample.kind for sample in samples}):
        cpu_ms = [s.ref_cpu_s * 1000.0 for s in samples if s.kind == kind]
        entry = {"n": len(cpu_ms), "p50_ms": percentile(cpu_ms, 50)}
        tail = tail_percentile(len(cpu_ms))
        if tail is not None:
            entry[f"p{tail}_ms"] = percentile(cpu_ms, tail)
        summary[kind] = entry
    return summary


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def traced_run(workload: str, seed: int, size: int, kernel: CalibrationKernel,
               untraced: list[Sample]):
    """The traced pass: per-layer metrics, layer table and Chrome trace."""
    plan, _ = set_up(workload, seed, size, 1, kernel)
    tracer = Tracer().install()
    try:
        samples, records = run_ops(plan, tracer, kernel)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, samples, untraced, list(declared_metrics("per_layer")))
    table = layer_table(tracer, samples)
    for row in table:
        print(f"  layer {row['layer']:<14} self {row['self_s']:9.3f} s  {row['share']:6.1%}")
    stem = f"{workload}-{seed}"
    trace_path = tracer.write_chrome_trace(WORKDIR / f"trace-{stem}.json")
    (WORKDIR / f"layers-{stem}.json").write_text(json.dumps(
        {"layers": table, "counts": dict(tracer.counts), "dropped_spans": tracer.dropped},
        indent=2, sort_keys=True,
    ))
    print(f"chrome trace: {trace_path} ({len(tracer.records)} spans kept)")
    return samples, records, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    facts = host_facts()  # imports numpy once, outside the timed set-ups
    size = units_for(args.workload, args.seconds)
    kernel = CalibrationKernel()
    plan, setups = set_up(args.workload, args.seed, size, SETUPS, kernel)
    print(f"workload {args.workload}: seed {args.seed}, {len(plan.ops)} ops, {plan.facts}")
    samples, records = run_ops(plan, kernel=kernel)
    del plan
    checked = samples

    if args.trace:
        untraced = samples
        samples, records, metrics = traced_run(args.workload, args.seed, size, kernel, untraced)
        units = declared_metrics("per_layer")
        checked = untraced + samples
    else:
        metrics = end_to_end_metrics(samples, setups)
        units = declared_metrics("end_to_end")
        raw_cpu = sum(sample.cpu_s for sample in samples)
        raw_wall = sum(sample.wall_s for sample in samples)
        print(f"raw host times: cpu {raw_cpu:.3f} s, wall {raw_wall:.3f} s; host speed "
              f"{metrics['cpu_s'] / raw_cpu:.3f} x reference")
        print(f"setup_s over {len(setups)} set-ups (reference s): "
              f"{[round(sample.ref_cpu_s, 4) for sample in setups]}")
        print(f"op_p50_ms and op_tail_ms (p{tail_percentile(len(samples)) or 50}) over "
              f"{len(samples)} ops; by op class (reference ms): "
              f"{json.dumps(class_summary(samples))}")

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    failed = [sample for sample in checked if not sample.ok]
    for sample in failed[:10]:
        print(f"FAILED {sample.label}: {sample.reason}")
    output_digest = digest(records)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = f"{args.workload}/{args.seed}/{size}"
    expected = reference.get(key)
    match = "absent" if expected is None else ("match" if expected == output_digest else "MISMATCH")
    print(f"digest {key} {output_digest} reference {match}")
    facts["loadavg_end"] = list(os.getloadavg())
    print(f"host {json.dumps(facts, sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
