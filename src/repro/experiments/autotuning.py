"""Autotuning validation experiments.

Two registered experiments gate the :mod:`repro.autotune` subsystem the way
figure reproductions gate the performance model:

``tuning_theta_rediscovery``
    Evaluates all 200 points of the Section V-B MPI-IO space on IOR over
    Theta, starting from the *untuned* defaults (1 OST, 1 MiB stripes, one
    aggregator per OST, no lock sharing), and certifies that the proven
    optimum is the regime of the paper's hand-optimized preset — 48 OSTs,
    8 MiB stripes, 2 aggregators/OST (per 512 nodes), shared locks.
    Documented tolerances (the model's optimum surface is flat in some
    directions where the paper picked a single point):

    * stripe count: exactly the preset's 48 (the widest paper-plausible
      striping in the space);
    * lock sharing: exactly the preset's ``True``;
    * stripe size: within a factor of 4 of the preset's 8 MiB at
      paper-like allocations (>= 256 nodes).  The model is ~5% flat across
      2-16 MiB once striping is wide and locks shared, and at smoke-scale
      allocations its optimum genuinely drifts toward 1 MiB stripes, so
      below 256 nodes this check degrades to the categorical knobs;
    * aggregators per OST: at least the preset's density at the evaluated
      node count (``max(1, 2 * nodes / 512)``; the model mildly prefers one
      or two more than the paper's choice);
    * objective: the preset is a point of the space, so the optimum is at
      least the preset's bandwidth exactly, and at least 10x the untuned
      baseline's.

``tuning_interference_aware``
    Re-tuning under multi-job contention must *move* the optimum: a job
    tuned in isolation is indifferent to where its file's OST stripe is
    anchored, but with a co-runner pinned to OSTs 0-1 the tuned anchor must
    shift to a disjoint OST set and restore ~1.0 slowdown.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.autotune.defaults import THETA_STRIPE_COUNTS, theta_mpiio_space
from repro.autotune.space import Categorical, SearchSpace
from repro.autotune.tuner import tune
from repro.experiments.results import ExperimentResult, Series
from repro.scenario.registry import register_scenario
from repro.scenario.simulation import Simulation
from repro.scenario.spec import (
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    MultiJobSpec,
    Scenario,
    StorageSpec,
    WorkloadSpec,
)
from repro.utils.scaling import scaled_nodes
from repro.utils.units import MB, MIB

#: Stripe width of the interference-aware study's jobs (narrow, so an
#: I/O-bound job saturates its OSTs and sharing them visibly binds).
_JOB_STRIPE_COUNT = 2


def tuning_theta_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario: IOR on Theta at the *untuned* system defaults.

    This is the paper's Fig. 8 baseline cell in explicit (tunable) form:
    plain ``mpiio`` with 1 OST, 1 MiB stripes, a 1 MiB collective buffer,
    one aggregator per OST and no lock sharing — the slowest corner of the
    tuned space.
    """
    return Scenario(
        id="tuning_theta_rediscovery",
        title="Rediscovering the paper's optimized Theta MPI-IO settings by search",
        machine=MachineSpec(kind="theta", num_nodes=scaled_nodes(512, scale)),
        workload=WorkloadSpec(kind="ior", bytes_per_rank=2 * MB),
        io=IOStrategySpec(
            kind="mpiio",
            aggregators_per_ost=1,
            buffer_size=1 * MIB,
            shared_locks=False,
        ),
        storage=StorageSpec(kind="lustre", stripe_count=1, stripe_size=1 * MIB),
    )


def _preset_aggregators_per_ost(num_nodes: int) -> int:
    """The paper preset's aggregator density at a node count (Section V-B)."""
    return max(1, 2 * num_nodes // 512)


def tuning_theta_rediscovery(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """The proven optimum of the Section V-B space is the paper's tuned preset."""
    space = theta_mpiio_space()
    space.reject_overrides(overrides)
    base = tuning_theta_scenario(scale).with_overrides(overrides)
    machine_nodes = Simulation(base).machine.num_nodes
    preset_per_ost = _preset_aggregators_per_ost(machine_nodes)
    baseline_value = Simulation(base).estimate().bandwidth_gbps()
    preset_point = {
        "storage.stripe_count": 48,
        "storage.stripe_size": 8 * MIB,
        "io.buffer_size": 8 * MIB,
        "io.aggregators_per_ost": preset_per_ost,
        "io.shared_locks": True,
    }
    preset_value = (
        Simulation(base.with_overrides(preset_point)).estimate().bandwidth_gbps()
    )

    trace = tune(base, space, "bandwidth")
    best = trace.best_overrides
    best_value = trace.best_value
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=Simulation(base).machine.name,
        x_label="Lustre stripe count (OSTs)",
        paper_reference=(
            "Section V-B: the user-optimized Theta configuration is 48 OSTs, "
            "8 MiB stripes, 2 aggregators per OST (per 512 nodes), and "
            "collective lock sharing"
        ),
    )
    best_at: dict[tuple[bool, int], float] = {}
    for point in trace.points:
        if point.value is not None:
            overrides = point.overrides
            key = (overrides["io.shared_locks"], overrides["storage.stripe_count"])
            best_at[key] = max(point.value, best_at.get(key, point.value))
    for shared in (True, False):
        series = Series(
            f"{'shared' if shared else 'unshared'} locks: best GBps per stripe count"
        )
        for count in THETA_STRIPE_COUNTS:
            series.add(count, round(best_at[shared, count], 4))
        result.series.append(series)

    result.checks = {
        "the proven optimum uses the preset's 48-OST wide striping": (
            best.get("storage.stripe_count") == 48
        ),
        "the proven optimum uses collective lock sharing": (
            best.get("io.shared_locks") is True
        ),
        "at paper-like scale, the optimum's stripe size is within 4x of the "
        "preset's 8 MiB": (
            machine_nodes < 256  # flat optimum drifts at smoke allocations
            or 2 * MIB <= best.get("storage.stripe_size", 0) <= 32 * MIB
        ),
        "the optimum's aggregator density at least matches the preset's 2 per "
        "OST per 512 nodes": (
            best.get("io.aggregators_per_ost", 0) >= preset_per_ost
        ),
        "the expert preset is a point of the evaluated space": any(
            point.overrides == preset_point for point in trace.points
        ),
        "the proven optimum matches or beats the expert preset": (
            best_value >= preset_value
        ),
        "tuning gains at least 10x over the untuned baseline": (
            best_value >= 10.0 * baseline_value
        ),
    }
    settings = ", ".join(f"{key}={best[key]}" for key in sorted(best))
    result.notes = (
        f"Proven optimum {best_value:.3f} GBps over all {len(trace.points)} "
        f"points of the space at {machine_nodes} nodes ({settings}); expert "
        f"preset {preset_value:.3f} GBps (2/OST scaled to {preset_per_ost}/OST), "
        f"{1 - preset_value / best_value:.2%} below the optimum; untuned "
        f"baseline {baseline_value:.3f} GBps, "
        f"{1 - baseline_value / best_value:.2%} below the optimum"
    )
    return result


# --------------------------------------------------------------------------- #
# Interference-aware re-tuning
# --------------------------------------------------------------------------- #


def _contender_nodes(scale: float) -> int:
    """Per-job node count: 64 at paper scale, multiples of a Theta router."""
    nodes = max(4, int(round(64 / scale)))
    return max(4, (nodes // 4) * 4)


def _tunable_job(name: str, num_nodes: int, *, ost_start: int) -> JobScenarioSpec:
    return JobScenarioSpec(
        name=name,
        num_nodes=num_nodes,
        workload=WorkloadSpec(kind="ior", bytes_per_rank=4 * MB),
        io=IOStrategySpec(
            kind="tapioca",
            num_aggregators=min(32, num_nodes * 16),
            buffer_size=8 * MIB,
        ),
        storage=StorageSpec(
            kind="lustre",
            stripe_count=_JOB_STRIPE_COUNT,
            stripe_size=8 * MIB,
            ost_start=ost_start,
        ),
    )


def tuning_interference_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario: job A's OST anchor is tunable, job B is pinned to OSTs 0-1."""
    num_nodes = _contender_nodes(scale)
    return Scenario(
        id="tuning_interference_aware",
        title="Re-tuning a job's OST anchor under multi-job contention",
        machine=MachineSpec(kind="theta", num_nodes=2 * num_nodes),
        multijob=MultiJobSpec(
            jobs=(
                _tunable_job("A", num_nodes, ost_start=0),
                _tunable_job("B", num_nodes, ost_start=0),
            )
        ),
    )


def tuning_interference_aware(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Contention moves the tuned optimum: the OST anchor shifts off the co-runner."""
    anchors = tuple(_JOB_STRIPE_COUNT * step for step in range(4))
    space = SearchSpace(Categorical("multijob.jobs.0.storage.ost_start", anchors))
    space.reject_overrides(overrides)

    base = tuning_interference_scenario(scale).with_overrides(overrides)
    solo = base.with_overrides({"multijob.jobs": base.multijob.jobs[:1]})
    traces = {
        "solo": tune(solo, space, "slowdown", name="tuning_interference_aware/solo"),
        "contended": tune(base, space, "slowdown"),
    }
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=Simulation(base).machine.name,
        x_label="job A ost_start",
        paper_reference=(
            "Not a paper figure: shows the Section V-B style tuning answer "
            "changes once the production machine's shared Lustre is modelled "
            "(the condition PR 2's interference subsystem reproduces)"
        ),
    )
    values: dict[str, dict[int, float]] = {}
    for name, trace in traces.items():
        series = Series(f"{name}: worst slowdown per anchor")
        values[name] = {}
        for point in trace.points:
            anchor = point.overrides["multijob.jobs.0.storage.ost_start"]
            values[name][anchor] = point.value
            series.add(anchor, round(point.value, 4))
        result.series.append(series)

    solo_values = values["solo"]
    contended_values = values["contended"]
    contended_best = traces["contended"].best_overrides.get(
        "multijob.jobs.0.storage.ost_start"
    )
    result.checks = {
        "tuned in isolation, the OST anchor is indifferent (flat objective)": (
            max(solo_values.values()) - min(solo_values.values()) <= 0.01
        ),
        "under contention the optimum shifts off the co-runner's OSTs": (
            contended_best is not None and contended_best >= _JOB_STRIPE_COUNT
        ),
        "the shifted optimum restores isolation (slowdown ~1.0)": (
            traces["contended"].best_value is not None
            and traces["contended"].best_value <= 1.01
        ),
        "keeping the solo answer under contention costs > 5%": (
            contended_values[0] >= 1.05
        ),
    }
    result.notes = (
        f"Anchors searched: {', '.join(map(str, anchors))} (job B pinned to "
        f"OSTs 0-{_JOB_STRIPE_COUNT - 1}); contended optimum at "
        f"ost_start={contended_best}"
    )
    return result


# --------------------------------------------------------------------------- #
# Named-scenario registry entries
# --------------------------------------------------------------------------- #

for _name, _builder, _description in (
    (
        "tuning_theta_rediscovery",
        tuning_theta_scenario,
        "Untuned Theta MPI-IO cell the rediscovery tuner starts from",
    ),
    (
        "tuning_interference_aware",
        tuning_interference_scenario,
        "Two-job contention cell whose OST anchor gets re-tuned",
    ),
):
    register_scenario(_name, _builder, _description)
