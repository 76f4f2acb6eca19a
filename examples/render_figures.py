#!/usr/bin/env python
"""Render paper figures from stored artifacts, library-level.

The ``repro figures`` CLI wraps exactly this flow: reproduce the figure
experiments once into an artifact store, then render CSV (+ plots when
matplotlib is installed) and a deviation report purely from the stored
envelopes — no re-simulation.  Here the store is a temporary directory;
point ``ArtifactStore`` (or a ``sqlite:`` spec via
``ArtifactStore.from_spec``) at a real artifact store to render figures
from a previous ``repro run-all``.

Run with:  python examples/render_figures.py
"""

import json
import tempfile
from pathlib import Path

from repro.experiments.runner import run_experiments
from repro.experiments.store import ArtifactStore
from repro.reporting import matplotlib_available, render_figures

workdir = Path(tempfile.mkdtemp(prefix="repro-figures-"))
store = ArtifactStore(workdir / "artifacts")

# --- Produce artifacts (normally a prior `repro run-all --out ...`) ----------
# Scale divisor 8 keeps this a ~2s smoke run; drop to 1.0 for paper scale.
print("Reproducing fig10 and table1 at scale 8 ...")
run_experiments(["fig10", "table1"], scale=8.0, store=store)

# --- Render from the store alone ---------------------------------------------
out = workdir / "figures"
report = render_figures(store, ["fig10", "table1"], out)
print(report.summary())
print()

# Each figure becomes a tidy CSV: reproduced series next to the digitised
# paper values, with per-point `deviation` (raw, recorded only) and
# `shape_deviation` (normalised, gated against TOLERANCES).
csv_lines = (out / "fig10.csv").read_text().strip().splitlines()
print(f"fig10.csv ({len(csv_lines) - 1} rows):")
for line in csv_lines[:4]:
    print(f"  {line}")

# deviation_report.json is the machine-readable verdict CI gates on.
payload = json.loads((out / "deviation_report.json").read_text())
print(
    f"\ndeviation report: pass={payload['pass']} "
    f"worst={payload['worst']['figure']}/{payload['worst']['series']} "
    f"shape_deviation={payload['worst']['shape_deviation']:+.3f}"
)

if not matplotlib_available():
    print("matplotlib not installed: CSV only (install the 'plots' extra for PNG/SVG)")

assert report.passed(), "deviation gate failed"
print(f"\nArtifacts and figures under {workdir}")
