"""Experiment harness reproducing every figure and table of the paper.

Each experiment function regenerates one figure/table of the paper's
evaluation (Section V) with the analytic performance model at the paper's
scale, returning an :class:`~repro.experiments.results.ExperimentResult`
holding the same series the paper plots plus a set of qualitative checks
(who wins, by roughly what factor, where the optimum lies).

The registry in :mod:`repro.experiments.harness` maps experiment identifiers
(``"fig07"`` ... ``"fig14"``, ``"table1"``, ablations) to these functions;
:func:`repro.core.api.evaluate` runs any entry by id, and ``EXPERIMENTS.md``
records paper-vs-measured values.
"""

from repro.experiments.results import ExperimentResult, Series, SeriesPoint
from repro.experiments.harness import EXPERIMENTS, list_experiments
from repro.experiments.runner import RunOutcome, RunReport, run_experiments
from repro.experiments.store import ArtifactStore

__all__ = [
    "ExperimentResult",
    "Series",
    "SeriesPoint",
    "EXPERIMENTS",
    "list_experiments",
    "RunOutcome",
    "RunReport",
    "run_experiments",
    "ArtifactStore",
]
