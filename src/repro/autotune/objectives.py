"""Objectives: what a tuning run optimises.

Every objective is evaluated through the
:class:`~repro.scenario.simulation.Simulation` facade, so a candidate point
costs exactly what the equivalent ``repro scenario run`` would — nothing is
re-modelled on the side.  Single-job scenarios optimise aggregate bandwidth
or time-to-solution; multi-job scenarios optimise the interference report's
worst per-job slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.scenario.simulation import Simulation
from repro.scenario.spec import Scenario, ScenarioError
from repro.utils.validation import did_you_mean_hint


@dataclass(frozen=True)
class Objective:
    """One optimisation target.

    Attributes:
        name: registry key (``"bandwidth"``, ``"time"``, ``"slowdown"``).
        label: human-readable description with units, for traces/reports.
        direction: ``"max"`` or ``"min"``.
        fn: maps a resolved :class:`Simulation` to the objective value.
        multijob: ``True`` if the objective needs a multi-job scenario,
            ``False`` if it needs a single-job one.
    """

    name: str
    label: str
    direction: str
    fn: Callable[[Simulation], float]
    multijob: bool

    def compute(self, scenario: Scenario) -> float:
        """The objective value of one scenario (via the simulation facade).

        This is the internal workhorse :func:`repro.core.api.evaluate`
        dispatches to in objective mode; it validates the scenario kind and
        runs the simulation directly.
        """
        if self.multijob != (scenario.multijob is not None):
            kind = "a multi-job" if self.multijob else "a single-job"
            raise ScenarioError(
                f"objective {self.name!r} needs {kind} scenario, but "
                f"{scenario.id!r} is {'multi' if scenario.multijob else 'single'}-job"
            )
        return float(self.fn(Simulation(scenario)))

    def better(self, candidate: float, incumbent: float | None) -> bool:
        """Whether ``candidate`` improves on ``incumbent`` (None = no incumbent)."""
        if incumbent is None:
            return True
        if self.direction == "max":
            return candidate > incumbent
        return candidate < incumbent


#: Registered objectives, by name.
OBJECTIVES: dict[str, Objective] = {
    objective.name: objective
    for objective in (
        Objective(
            name="bandwidth",
            label="aggregate I/O bandwidth (GBps)",
            direction="max",
            fn=lambda simulation: simulation.estimate().bandwidth_gbps(),
            multijob=False,
        ),
        Objective(
            name="time",
            label="time to solution (s)",
            direction="min",
            fn=lambda simulation: simulation.estimate().elapsed,
            multijob=False,
        ),
        Objective(
            name="slowdown",
            label="worst per-job slowdown vs isolated run",
            direction="min",
            fn=lambda simulation: simulation.interference_report().max_slowdown(),
            multijob=True,
        ),
    )
}


def get_objective(name: str) -> Objective:
    """Look up a registered objective (did-you-mean hint on unknown names)."""
    if name in OBJECTIVES:
        return OBJECTIVES[name]
    hint = did_you_mean_hint(name, OBJECTIVES)
    raise KeyError(
        f"unknown objective {name!r} (known: {', '.join(OBJECTIVES)}){hint}"
    )


def default_objective(scenario: Scenario) -> Objective:
    """The natural objective for a scenario: slowdown if multi-job, else bandwidth."""
    return OBJECTIVES["slowdown" if scenario.multijob is not None else "bandwidth"]
