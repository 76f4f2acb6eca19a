"""Autotuning: certify the cost model's optimum over a scenario's tuning space.

The paper's headline comparisons rest on hand-tuned I/O parameters (48
OSTs, 8 MiB stripes, 2 aggregators per OST on Theta; lock sharing on Mira —
Section V-B).  This package checks those static presets against the whole
space they were picked from: a :class:`~repro.autotune.space.SearchSpace`
describes the candidate scenario points, an
:class:`~repro.autotune.objectives.Objective` scores each one through the
:class:`~repro.scenario.simulation.Simulation` facade, and
:func:`~repro.autotune.tuner.tune` evaluates every point — with parallel
candidate fan-out and per-point artifact-store caching — into a
:class:`~repro.autotune.trace.TuningTrace`: every point, the proven optimum
and each point's gap to it.

The ``tuning_theta_rediscovery`` and ``tuning_interference_aware``
experiments (:mod:`repro.experiments.autotuning`) validate the subsystem:
the proven optimum over the untuned baseline's space must be the paper's
optimized regime — and it must move once co-running jobs contend for the
same OSTs.
"""

from repro.autotune.defaults import as_tunable, suggest_space, theta_mpiio_space
from repro.autotune.objectives import (
    OBJECTIVES,
    Objective,
    default_objective,
    get_objective,
)
from repro.autotune.space import (
    AutotuneError,
    Categorical,
    Domain,
    Linked,
    LogBytes,
    SearchSpace,
    linked,
)
from repro.autotune.trace import TracePoint, TuningTrace
from repro.autotune.tuner import (
    MAX_SPACE_POINTS,
    point_digest,
    rescale_scenario,
    tune,
)

__all__ = [
    "AutotuneError",
    "Domain",
    "Categorical",
    "LogBytes",
    "Linked",
    "linked",
    "SearchSpace",
    "Objective",
    "OBJECTIVES",
    "get_objective",
    "default_objective",
    "TracePoint",
    "TuningTrace",
    "tune",
    "MAX_SPACE_POINTS",
    "point_digest",
    "rescale_scenario",
    "as_tunable",
    "suggest_space",
    "theta_mpiio_space",
]
