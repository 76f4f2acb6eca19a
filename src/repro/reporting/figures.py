"""The figure registry and renderers behind ``repro figures``.

Each :class:`FigureSpec` maps one paper figure/table to the artifact
experiment id and series it consumes.  Rendering is store-driven and never
simulates: :func:`render_figures` loads envelopes from any
:class:`~repro.experiments.store.ArtifactStore` backend (flat directory
or sqlite), emits one tidy CSV per figure with the digitised paper
value and both deviations beside every reproduced point, optionally a
PNG/SVG when matplotlib is importable (see
:mod:`repro.reporting.plotting`), and one ``deviation_report.json`` for
the whole batch.

Every render is observable: a ``reporting.render:<figure>`` span per
figure, ``reporting.points_compared`` / ``reporting.figures_rendered``
counters, and a ``/stats``-style summary via :meth:`RenderReport.summary`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.experiments.results import ExperimentResult
from repro.experiments.store import ArtifactStore
from repro.obs import recorder, span
from repro.reporting.paperdata import (
    PAPER_FIGURES,
    FigureComparison,
    compare_result,
    deviation_report,
)

#: Column order of the tidy per-figure CSV.  One row per reproduced point;
#: ``paper_bandwidth_gbps``/``deviation``/``shape_deviation`` are empty for
#: points (or whole figures) without digitised reference data.
CSV_COLUMNS = (
    "figure",
    "series",
    "x",
    "x_label",
    "bandwidth_gbps",
    "paper_bandwidth_gbps",
    "deviation",
    "shape_deviation",
)

#: Name of the machine-readable deviation summary written next to the CSVs.
DEVIATION_REPORT_NAME = "deviation_report.json"


@dataclass(frozen=True)
class FigureSpec:
    """One renderable paper figure/table.

    Attributes:
        figure_id: the id used by the CLI and in output file names.
        experiment_id: the artifact the figure renders from (identical to
            ``figure_id`` today; the indirection keeps multi-artifact
            figures possible without changing the registry shape).
        title: short human caption for plots and listings.
        kind: ``"line"`` for curves over data size, ``"bar"`` for
            categorical figures (Table I, the headline factors).
    """

    figure_id: str
    experiment_id: str
    title: str
    kind: str = "line"

    @property
    def has_paper_data(self) -> bool:
        """Whether digitised reference values exist for this figure."""
        return self.figure_id in PAPER_FIGURES


def _spec(figure_id: str, title: str, kind: str = "line") -> FigureSpec:
    return FigureSpec(figure_id, figure_id, title, kind)


#: The renderable figures, in paper order.  Keys double as CLI arguments.
FIGURES: dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        _spec("fig07", "IOR on Mira: baseline vs optimized MPI I/O"),
        _spec("fig08", "IOR on Theta: baseline vs optimized MPI I/O"),
        _spec("fig09", "Microbenchmark on Mira: TAPIOCA vs MPI I/O"),
        _spec("fig10", "Microbenchmark on Theta: TAPIOCA vs MPI I/O"),
        _spec("table1", "Theta: buffer size / stripe size ratio", kind="bar"),
        _spec("fig11", "HACC-IO on Mira, 1,024 nodes"),
        _spec("fig12", "HACC-IO on Mira, 4,096 nodes"),
        _spec("fig13", "HACC-IO on Theta, 1,024 nodes"),
        _spec("fig14", "HACC-IO on Theta, 2,048 nodes"),
        _spec("headline", "Headline speedups over MPI I/O", kind="bar"),
    )
}


def figure_csv(result: ExperimentResult) -> str:
    """The tidy CSV of one reproduced figure (columns: :data:`CSV_COLUMNS`).

    Every reproduced point becomes one row; when the figure has digitised
    paper data, the matching paper value and the two deviations (see
    :mod:`repro.reporting.paperdata`) ride along in the same row.
    """
    comparison = compare_result(result)

    def match_for(label: str, x: float):
        for point in comparison.points:
            if point.series == label and math.isclose(
                point.x, x, rel_tol=1e-9, abs_tol=1e-12
            ):
                return point
        return None

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for series in result.series:
        for point in series.points:
            row: list[object] = [
                result.experiment_id,
                series.label,
                point.x,
                result.x_label,
                point.bandwidth_gbps,
            ]
            match = match_for(series.label, point.x)
            if match is None:
                row += ["", "", ""]
            else:
                row += [
                    match.paper,
                    round(match.deviation, 6),
                    round(match.shape_deviation, 6),
                ]
            writer.writerow(row)
    return buffer.getvalue()


def result_from_store(store: ArtifactStore, experiment_id: str) -> ExperimentResult:
    """Load one experiment's result from a store, without simulating.

    Raises:
        FileNotFoundError: the store has no artifact for ``experiment_id``.
    """
    envelope = store.load_envelope(experiment_id)
    return ExperimentResult.from_dict(envelope["result"])


def figure_csv_from_store(store: ArtifactStore, figure_id: str) -> str:
    """The tidy CSV of one figure, rendered straight from stored artifacts.

    The entry point behind the daemon's ``GET /figures/<id>.csv``.

    Raises:
        KeyError: ``figure_id`` is not a registered figure.
        FileNotFoundError: the store holds no artifact for it.
    """
    spec = FIGURES.get(figure_id)
    if spec is None:
        raise KeyError(f"unknown figure {figure_id!r}")
    return figure_csv(result_from_store(store, spec.experiment_id))


@dataclass
class RenderedFigure:
    """What one figure render produced."""

    figure_id: str
    csv_path: Path
    plot_paths: list[Path] = field(default_factory=list)
    comparison: FigureComparison | None = None


@dataclass
class RenderReport:
    """The outcome of one :func:`render_figures` batch."""

    out_dir: Path
    rendered: list[RenderedFigure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    report_path: Path | None = None

    def passed(self) -> bool:
        """Whether every digitised figure stayed within tolerance."""
        return bool(self.report.get("pass", False))

    def summary(self) -> str:
        """A ``/stats``-style one-screen summary of the batch."""
        lines = [f"Rendered {len(self.rendered)} figure(s) -> {self.out_dir}"]
        for item in self.rendered:
            comparison = item.comparison
            if comparison is None or comparison.tolerance is None:
                verdict = "no paper data"
            else:
                verdict = (
                    f"rms shape dev {comparison.rms_shape_deviation():.3f} "
                    f"(tol {comparison.tolerance:.2f}) "
                    f"[{'PASS' if comparison.passed() else 'FAIL'}]"
                )
            plots = (
                ", ".join(p.name for p in item.plot_paths)
                if item.plot_paths
                else "csv only"
            )
            lines.append(f"  {item.figure_id:<9} {verdict:<45} {plots}")
        if self.skipped:
            lines.append(f"Skipped (no artifact): {', '.join(self.skipped)}")
        lines.append(f"Points compared: {self.report.get('points_compared', 0)}")
        worst = self.report.get("worst")
        if worst:
            lines.append(
                "Worst point: "
                f"{worst['figure']} / {worst['series']} @ x={worst['x']} "
                f"(shape dev {worst['shape_deviation']:+.3f})"
            )
        if self.report:
            lines.append(
                "Deviation gate: " + ("PASS" if self.passed() else "FAIL")
            )
        return "\n".join(lines)


def resolve_figure_ids(requested: Sequence[str]) -> list[str]:
    """Validate and order figure ids (empty / ``["all"]`` means everything).

    Raises:
        KeyError: naming the first unknown id.
    """
    if not requested or list(requested) == ["all"]:
        return list(FIGURES)
    for figure_id in requested:
        if figure_id not in FIGURES:
            raise KeyError(
                f"unknown figure {figure_id!r}; choose from {', '.join(FIGURES)}"
            )
    # Keep paper order regardless of argument order, drop duplicates.
    wanted = set(requested)
    return [figure_id for figure_id in FIGURES if figure_id in wanted]


def render_figures(
    store: ArtifactStore,
    figure_ids: Iterable[str] | None = None,
    out_dir: str | Path = "figures",
    *,
    plots: bool = True,
) -> RenderReport:
    """Render figures from stored artifacts: CSV always, plots when possible.

    Args:
        store: the artifact store to read from (any backend).
        figure_ids: which figures to render (default: all registered).
        out_dir: output directory (created); receives ``<fig>.csv``,
            ``<fig>.png``/``.svg`` when matplotlib is available, and
            ``deviation_report.json``.
        plots: set ``False`` to force CSV-only output even when matplotlib
            is importable.

    Figures whose artifact is absent from the store are skipped and listed
    in :attr:`RenderReport.skipped` — rendering never re-simulates.
    """
    from repro.reporting.plotting import plot_figure

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    ids = resolve_figure_ids(list(figure_ids or ()))
    report = RenderReport(out_dir=out_path)
    comparisons: list[FigureComparison] = []
    scales: set[float] = set()
    for figure_id in ids:
        spec = FIGURES[figure_id]
        with span(f"reporting.render:{figure_id}", cat="reporting"):
            try:
                envelope = store.load_envelope(spec.experiment_id)
            except FileNotFoundError:
                report.skipped.append(figure_id)
                continue
            result = ExperimentResult.from_dict(envelope["result"])
            if "scale" in envelope:
                scales.add(float(envelope["scale"]))
            comparison = compare_result(result)
            comparisons.append(comparison)
            csv_path = out_path / f"{figure_id}.csv"
            csv_path.write_text(figure_csv(result), encoding="utf-8")
            rendered = RenderedFigure(figure_id, csv_path, comparison=comparison)
            if plots:
                rendered.plot_paths = plot_figure(spec, result, out_path)
            report.rendered.append(rendered)
            rec = recorder()
            if rec is not None:
                rec.inc("reporting.figures_rendered", figure=figure_id)
                rec.inc(
                    "reporting.points_compared",
                    len(comparison.points),
                    figure=figure_id,
                )
    report.report = deviation_report(comparisons, scales=sorted(scales))
    report.report_path = out_path / DEVIATION_REPORT_NAME
    report.report_path.write_text(
        json.dumps(report.report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report
