"""Generate EXPERIMENTS.md — the paper-vs-measured record.

Running ``python -m repro.experiments.report`` executes every registered
experiment (at the paper's scale by default) and writes a Markdown report
with, per figure/table: the paper's reported behaviour, the reproduced
series, and the outcome of each qualitative check.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from repro.core.api import evaluate
from repro.experiments.harness import list_experiments
from repro.experiments.results import ExperimentResult, format_optimality_gap
from repro.experiments.store import ArtifactStore

#: Figure/table captions in paper order (ablations follow).
_PAPER_ORDER = [
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "table1",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "headline",
    "ablation_placement",
    "ablation_pipelining",
    "ablation_aggregators",
    "ablation_io_locality",
    "ablation_burst_buffer",
    "placement_optimality",
]

_PREAMBLE = """# EXPERIMENTS — paper vs. reproduction

Reproduction of the evaluation of *TAPIOCA: An I/O Library for Optimized
Topology-Aware Data Aggregation on Large-Scale Supercomputers* (CLUSTER
2017).  The substrate here is a calibrated performance model of Mira
(BG/Q + GPFS) and Theta (XC40 + Lustre), not the machines themselves, so
**absolute bandwidths are not expected to match**; what each section records
is whether the *shape* of the paper's result is reproduced — who wins, by
roughly what factor, and where optima/crossovers lie.  Every table below is
regenerated by ``repro report`` or ``python -m repro.experiments.report``.

Known deviations of this reproduction (details in DESIGN.md):

* The BG/Q headline factor (12x for the SoA layout at small sizes) is only
  partially reproduced (~3-5x): the model captures the partially-filled-buffer
  and sub-block read-modify-write penalties of plain MPI I/O but not every
  pathology of the real GPFS client at 64Ki ranks.
* On Mira the large-message AoS gap between TAPIOCA and (tuned) MPI I/O is
  smaller than in Fig. 11/12, because the model credits ROMIO's GPFS driver
  with block-aligned file domains.
* On Theta the TAPIOCA absolute bandwidths are somewhat above the paper's
  (the Lustre model's per-OST saturation curve is a first-order fit).

The quantitative form of this comparison — per-point deviation against
digitised paper values and a per-figure RMS shape tolerance — is rendered
by ``python -m repro figures --all --from artifacts/`` (CSV + optional
plots + ``deviation_report.json``); provenance of every digitised value is
documented in docs/PAPER_DATA.md.

"""


def _section(result: ExperimentResult) -> str:
    lines = [f"## {result.experiment_id}: {result.title}", ""]
    lines.append(f"*Machine:* {result.machine}")
    if result.paper_reference:
        lines.append(f"*Paper reports:* {result.paper_reference}")
    if result.optimality_gap is not None:
        # Old artifacts have no optimality_gap key at all (from_dict maps
        # the absence to None), so uncertified sections skip this line.
        lines.append(
            f"*Placement optimality gap:* "
            f"{format_optimality_gap(result.optimality_gap)}"
        )
    if result.notes:
        lines.append(f"*Notes:* {result.notes}")
    lines.append("")
    lines.append("```")
    lines.append(result.to_table().render())
    lines.append("```")
    lines.append("")
    lines.append("Checks:")
    for name, passed in result.checks.items():
        lines.append(f"- [{'x' if passed else ' '}] {name}")
    lines.append("")
    return "\n".join(lines)


def _paper_order(available: list[str]) -> list[str]:
    """Sort experiment ids into paper order (unknown ids go last, sorted)."""
    ordered = [eid for eid in _PAPER_ORDER if eid in available]
    ordered += sorted(eid for eid in available if eid not in _PAPER_ORDER)
    return ordered


def generate_report(*, scale: float = 1.0, ids: list[str] | None = None) -> str:
    """Build the full Markdown report (running every experiment)."""
    experiment_ids = ids or _paper_order(list_experiments())
    sections = [_PREAMBLE]
    sections.append(f"_Generated on {date.today().isoformat()} at scale divisor {scale:g}._\n")
    for experiment_id in experiment_ids:
        result = evaluate(experiment_id, scale=scale).result
        sections.append(_section(result))
    return "\n".join(sections)


def generate_report_from_store(
    store: ArtifactStore, *, ids: list[str] | None = None
) -> str:
    """Build the Markdown report purely from stored JSON artifacts.

    Unlike :func:`generate_report` this never re-simulates anything: every
    section is rebuilt from the artifact directory, so the report can be
    regenerated (e.g. in CI, or on a machine without the compute budget)
    long after the sweep that produced it.

    Raises:
        FileNotFoundError: if the store is empty or a requested id has no
            artifact.
    """
    experiment_ids = ids or _paper_order(store.experiment_ids())
    if not experiment_ids:
        raise FileNotFoundError(f"no experiment artifacts in {store.root}")
    scales = store.scales()
    scale_note = (
        f"scale divisor {scales[0]:g}"
        if len(scales) == 1
        else "mixed scale divisors " + ", ".join(f"{s:g}" for s in scales)
    )
    sections = [_PREAMBLE]
    sections.append(
        f"_Generated on {date.today().isoformat()} from artifacts in "
        f"`{store.root}` at {scale_note}._\n"
    )
    walls: list[tuple[str, float]] = []
    for experiment_id in experiment_ids:
        envelope = store.load_envelope(experiment_id)
        walls.append((experiment_id, float(envelope.get("wall_time_s", 0.0))))
        sections.append(_section(ExperimentResult.from_dict(envelope["result"])))
    sections.append(_timing_section(walls))
    sections.extend(_tuning_sections(store))
    return "\n".join(sections)


def _timing_section(walls: list[tuple[str, float]]) -> str:
    """The fresh-vs-cached timing record of an artifact-based report.

    Every section above was served from the artifact cache (``--from``
    never simulates), so the relevant cost is the *original* simulation
    time each artifact records — the time a ``--no-cache`` regeneration
    would pay again.
    """
    total = sum(seconds for _, seconds in walls)
    lines = ["## timings", ""]
    lines.append(
        f"All {len(walls)} sections served from cached artifacts "
        f"(fresh 0.00s + {len(walls)} cached, original simulation cost "
        f"{total:.2f}s):"
    )
    lines.append("")
    for experiment_id, seconds in sorted(walls, key=lambda item: -item[1]):
        lines.append(f"- `{experiment_id}`: {seconds:.2f}s")
    lines.append("")
    return "\n".join(lines)


def _tuning_sections(store: ArtifactStore) -> list[str]:
    """One section per tuning trace stored next to the experiment artifacts.

    ``repro tune --out DIR`` drops ``<target>.tuning.json`` files into the
    same directory as the experiment envelopes; reporting them here makes
    the regenerated Markdown the single record of both what the figures
    show *and* what the tuner found.  Unreadable traces are skipped, like
    foreign-schema artifacts.
    """
    # Imported lazily: the autotune package imports the experiment runner.
    from repro.autotune.trace import TuningTrace

    sections = []
    for target in store.tuning_trace_targets():
        try:
            trace = TuningTrace.from_dict(store.load_tuning_trace(target))
        except (OSError, ValueError, KeyError, TypeError):
            continue
        lines = [f"## tuning trace: {trace.target} ({trace.strategy})", ""]
        lines.append(
            f"*Objective:* {trace.objective} [{trace.direction}], "
            f"budget {trace.budget}, seed {trace.seed}, "
            f"scale divisor {trace.scale:g}"
        )
        lines.append(
            f"*Points:* {len(trace.points)} "
            f"({trace.evaluations()} evaluated, {trace.cache_hits()} cache "
            f"hits, {trace.invalid_points()} invalid) in "
            f"{trace.wall_time_s:.2f}s"
        )
        best = trace.best_point()
        if best is None:
            lines.append("*Best:* no valid candidate found")
        else:
            settings = ", ".join(
                f"`{key}={best.overrides[key]}`" for key in sorted(best.overrides)
            )
            lines.append(f"*Best:* {best.value:.4g} at {settings}")
        lines.append("")
        lines.append("```")
        lines.append(trace.to_table(last=10).render())
        lines.append("```")
        lines.append("")
        sections.append("\n".join(lines))
    return sections


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="node-count divisor (1.0 reproduces the paper's scale)",
    )
    parser.add_argument(
        "--output",
        default="EXPERIMENTS.md",
        help="output Markdown file (default: EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--experiment",
        action="append",
        dest="experiments",
        help="run only the given experiment id(s); may be repeated",
    )
    parser.add_argument(
        "--from",
        dest="from_dir",
        default=None,
        metavar="DIR",
        help="regenerate from a JSON artifact directory instead of re-running",
    )
    args = parser.parse_args(argv)
    if args.from_dir:
        try:
            report = generate_report_from_store(
                ArtifactStore(args.from_dir), ids=args.experiments
            )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    else:
        report = generate_report(scale=args.scale, ids=args.experiments)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
