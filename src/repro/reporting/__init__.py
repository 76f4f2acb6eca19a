"""Figure-grade reporting: paper figures from artifacts, deviation tracking.

The reporting layer turns stored experiment artifacts into the paper's
evaluation — Figures 7-14, Table I and the headline claims — as tidy CSV
(always) and matplotlib PNG/SVG (when matplotlib is importable), each
series side-by-side with the digitised values of the published figure and
a per-point deviation.  It never simulates: everything renders from an
:class:`~repro.experiments.store.ArtifactStore`, whatever its backend.

Modules:

* :mod:`repro.reporting.paperdata` — the digitised reference values and
  the deviation computation (per-point, per-figure RMS, documented
  tolerances, ``deviation_report.json``).
* :mod:`repro.reporting.figures` — the figure registry mapping each paper
  figure/table to the artifact it consumes, plus the CSV/plot renderers
  behind ``repro figures`` and the daemon's ``GET /figures/<id>.csv``.
* :mod:`repro.reporting.plotting` — the optional matplotlib layer; every
  entry point degrades to CSV-only when matplotlib is absent.
"""

from repro.reporting.figures import (
    FIGURES,
    FigureSpec,
    figure_csv,
    figure_csv_from_store,
    render_figures,
)
from repro.reporting.paperdata import (
    PAPER_FIGURES,
    FigureComparison,
    compare_result,
    deviation_report,
)
from repro.reporting.plotting import matplotlib_available

__all__ = [
    "FIGURES",
    "FigureSpec",
    "PAPER_FIGURES",
    "FigureComparison",
    "compare_result",
    "deviation_report",
    "figure_csv",
    "figure_csv_from_store",
    "matplotlib_available",
    "render_figures",
]
