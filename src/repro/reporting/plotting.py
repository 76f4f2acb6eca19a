"""The optional matplotlib layer of the reporting package.

matplotlib is deliberately **not** a dependency of the reproduction — it
ships as the ``plots`` extra (``pip install -e ".[plots]"``).  Every
function here returns an empty list of written paths when matplotlib is
absent, so the CSV pipeline, the CLI, and CI all degrade gracefully to
CSV-only output instead of failing.

All rendering is headless (the Agg backend is forced before the first
``pyplot`` import) so plots work in CI and over SSH.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ExperimentResult
    from repro.reporting.figures import FigureSpec

#: Image formats written per figure when matplotlib is available.
PLOT_FORMATS = ("png", "svg")


@lru_cache(maxsize=1)
def matplotlib_available() -> bool:
    """Whether matplotlib can be imported (cached; forces the Agg backend)."""
    try:
        import matplotlib
    except ImportError:
        return False
    matplotlib.use("Agg", force=True)
    return True


def _pyplot():
    import matplotlib.pyplot as plt

    return plt


def plot_figure(
    spec: "FigureSpec",
    result: "ExperimentResult",
    out_dir: str | Path,
) -> list[Path]:
    """Plot one reproduced figure next to its digitised paper curves.

    Reproduced series are solid with round markers; the paper's digitised
    series (when present) are dashed with open squares in the matching
    colour, so the shape comparison the tolerance gates on is the thing
    the eye compares.  Returns the written paths (empty without
    matplotlib).
    """
    if not matplotlib_available():
        return []
    from repro.reporting.paperdata import paper_series_for

    plt = _pyplot()
    paper = paper_series_for(spec.figure_id)
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    try:
        cycle = plt.rcParams["axes.prop_cycle"].by_key().get("color", ["C0"])
        for index, series in enumerate(result.series):
            color = cycle[index % len(cycle)]
            xs = [point.x for point in series.points]
            ys = [point.bandwidth_gbps for point in series.points]
            if spec.kind == "bar":
                width = 0.8 / max(1, len(result.series))
                offsets = [x + index * width for x in range(len(xs))]
                ax.bar(offsets, ys, width=width, label=series.label, color=color)
                reference = paper.get(series.label)
                if reference is not None:
                    ax.plot(
                        [x + index * width for x in range(len(reference.xs))],
                        list(reference.values),
                        linestyle="none",
                        marker="s",
                        markerfacecolor="none",
                        color="black",
                        label=f"{series.label} (paper)",
                    )
            else:
                ax.plot(xs, ys, marker="o", color=color, label=series.label)
                reference = paper.get(series.label)
                if reference is not None:
                    ax.plot(
                        list(reference.xs),
                        list(reference.values),
                        linestyle="--",
                        marker="s",
                        markerfacecolor="none",
                        color=color,
                        alpha=0.6,
                        label=f"{series.label} (paper)",
                    )
        ax.set_title(f"{spec.figure_id}: {spec.title}")
        ax.set_xlabel(result.x_label)
        ax.set_ylabel("I/O bandwidth (GBps)")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        fig.tight_layout()
        written: list[Path] = []
        for fmt in PLOT_FORMATS:
            path = Path(out_dir) / f"{spec.figure_id}.{fmt}"
            fig.savefig(path, format=fmt)
            written.append(path)
        return written
    finally:
        plt.close(fig)

