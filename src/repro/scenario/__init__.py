"""Declarative scenario API.

One serialisable :class:`Scenario` description drives every experiment,
sweep, and CLI run:

* :mod:`repro.scenario.spec` — the frozen-dataclass scenario tree with
  validation, JSON round-trip, and dotted-path overrides;
* :mod:`repro.scenario.sweep` — cartesian/zipped sweeps over spec fields;
* :mod:`repro.scenario.simulation` — the :class:`Simulation` facade that
  resolves every scenario job, through one resolver, to a
  :class:`~repro.multijob.job.JobSpec` and runs its model plans;
* :mod:`repro.scenario.registry` — named base scenarios registered by the
  experiment modules (``repro scenario show NAME``).
"""

from repro.scenario.registry import (
    describe_scenarios,
    get_scenario,
    register_scenario,
    scenario_ids,
)
from repro.scenario.simulation import Simulation, run_scenario
from repro.scenario.spec import (
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    MultiJobSpec,
    PlacementSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    WorkloadSpec,
    apply_overrides,
    parse_override,
    parse_overrides,
)
from repro.scenario.sweep import Axis, Sweep, ZippedAxes, axis, zipped

__all__ = [
    "Scenario",
    "ScenarioError",
    "MachineSpec",
    "WorkloadSpec",
    "IOStrategySpec",
    "PlacementSpec",
    "StorageSpec",
    "JobScenarioSpec",
    "MultiJobSpec",
    "apply_overrides",
    "parse_override",
    "parse_overrides",
    "Axis",
    "ZippedAxes",
    "Sweep",
    "axis",
    "zipped",
    "Simulation",
    "run_scenario",
    "register_scenario",
    "get_scenario",
    "scenario_ids",
    "describe_scenarios",
]
