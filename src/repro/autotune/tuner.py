"""The tuning driver: one exhaustive, certified evaluation of a space.

:func:`tune` scores every point of a
:class:`~repro.autotune.space.SearchSpace` on one base scenario with an
:class:`~repro.autotune.objectives.Objective`, so the best value it reports
is the proven optimum of the space.  Candidates go through the runner's
scenario worker (:func:`repro.experiments.runner.evaluate_scenarios`),
in-process or over worker processes, and every evaluated point is persisted
in the :class:`~repro.experiments.store.ArtifactStore` keyed by ``(scenario
hash, objective)`` — re-running a tune, or tuning an overlapping space,
skips every point already paid for.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.autotune.objectives import Objective, default_objective, get_objective
from repro.autotune.space import AutotuneError, SearchSpace
from repro.autotune.trace import TracePoint, TuningTrace
from repro.machine.mira import MIRA_PSET_SIZE
from repro.obs import elapsed_s, now, recorder as obs_recorder, span as obs_span
from repro.scenario.spec import Scenario, ScenarioError
from repro.utils.scaling import scaled_nodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import ArtifactStore

#: Largest space :func:`tune` enumerates, about 5x the largest default
#: space of a registered scenario (768 points).  A default multi-job space
#: has ``3 * 4**n`` points for ``n`` Lustre jobs, so a large JSON deck would
#: otherwise enumerate for hours.
MAX_SPACE_POINTS = 4096


def point_digest(scenario: Scenario, objective: str) -> str:
    """Content-address of one candidate evaluation.

    A SHA-256 digest of the ``(scenario, objective)`` pair: two evaluations
    with the same digest are by construction the same scenario judged by
    the same objective, whatever tune produced them, and may share a cached
    value.  The scenario half is
    :meth:`~repro.scenario.spec.Scenario.content_hash` — the same address
    the evaluation daemon and the store's scenario-result cache use — so
    there is exactly one canonical hash per scenario description.
    """
    payload = f"{scenario.content_hash()}:{objective}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rescale_scenario(scenario: Scenario, divisor: float) -> Scenario:
    """A copy of ``scenario`` with node counts divided by ``divisor``.

    Granularity follows the machine: Mira allocations stay Pset multiples,
    everything else stays a multiple of 4 (a Theta router / generic leaf
    quantum).  Multi-job scenarios rescale every job and keep the machine
    large enough to host them all.
    """
    if divisor == 1.0:
        return scenario
    machine = scenario.machine
    multiple = (machine.pset_size or MIRA_PSET_SIZE) if machine.kind == "mira" else 4
    overrides: dict[str, Any] = {}
    machine_nodes = scaled_nodes(machine.num_nodes, divisor, multiple=multiple)
    if scenario.multijob is not None:
        job_nodes = []
        for index, job in enumerate(scenario.multijob.jobs):
            nodes = scaled_nodes(job.num_nodes, divisor, multiple=4)
            job_nodes.append(nodes)
            overrides[f"multijob.jobs.{index}.num_nodes"] = nodes
        machine_nodes = max(machine_nodes, sum(job_nodes))
    overrides["machine.num_nodes"] = machine_nodes
    return scenario.with_overrides(overrides)


def _resolve_objective(
    objective: Objective | str | None, scenario: Scenario
) -> Objective:
    """The objective to score ``scenario`` by, checked against its kind."""
    if objective is None:
        objective = default_objective(scenario)
    elif isinstance(objective, str):
        objective = get_objective(objective)
    if objective.multijob != (scenario.multijob is not None):
        kind = "a multi-job" if objective.multijob else "a single-job"
        raise ScenarioError(
            f"objective {objective.name!r} needs {kind} scenario, but "
            f"{scenario.id!r} is {'multi' if scenario.multijob else 'single'}-job"
        )
    return objective


def tune(
    scenario: Scenario,
    space: SearchSpace,
    objective: Objective | str | None = None,
    *,
    store: "ArtifactStore | None" = None,
    jobs: int = 1,
    name: str | None = None,
) -> TuningTrace:
    """Evaluate every point of ``space`` on ``scenario``; return the certificate.

    Points are scored in grid order; on ties the first point in grid order
    is the optimum.  A point the scenario tree rejects is recorded as
    invalid, not fatal.

    Args:
        scenario: the base scenario every point is applied to.
        space: the candidate space (at most :data:`MAX_SPACE_POINTS` points).
        objective: an :class:`Objective`, its registry name, or ``None``
            for the scenario's natural objective.
        store: artifact store for the per-point cache and the trace
            (``None`` disables both).
        jobs: worker processes for candidate fan-out (1 = in-process).
        name: label for the trace (default: the scenario's id).

    Raises:
        AutotuneError: when the space has more than
            :data:`MAX_SPACE_POINTS` points.
        ScenarioError: when the objective does not fit the scenario kind,
            or a domain's field path does not resolve (did-you-mean hint).
    """
    # Imported lazily: the experiments package imports the autotuning
    # experiments, which import this module.
    from repro.experiments.runner import evaluate_scenarios
    from repro.experiments.store import canonical_overrides

    size = space.size()
    if size > MAX_SPACE_POINTS:
        ladders = " x ".join(str(len(domain.fragments())) for domain in space.domains)
        raise AutotuneError(
            f"search space has {size:,} points ({ladders}), over the limit "
            f"of {MAX_SPACE_POINTS:,}; a multi-job space grows 4x per Lustre "
            f"job (one OST anchor domain each)"
        )
    objective = _resolve_objective(objective, scenario)
    space.validate_on(scenario)
    name = name or scenario.id
    start = now()
    entries: list[dict[str, Any]] = []
    pending: list[dict[str, Any]] = []
    with obs_span(f"tune:{name}", cat="tuner", points=size):
        for point in space.grid():
            entry: dict[str, Any] = {
                "overrides": canonical_overrides(point) or {},
                "num_nodes": scenario.machine.num_nodes,
                "value": None,
                "cached": False,
                "error": None,
            }
            entries.append(entry)
            try:
                candidate = space.apply(scenario, point)
            except ScenarioError as error:
                entry["error"] = str(error)
                continue
            entry["num_nodes"] = candidate.machine.num_nodes
            entry["scenario"] = candidate
            if store is not None:
                entry["digest"] = point_digest(candidate, objective.name)
                cached = store.load_tuning_point(entry["digest"])
                if cached is not None:
                    entry["value"] = cached.get("value")
                    entry["error"] = cached.get("error")
                    entry["cached"] = True
                    continue
            pending.append(entry)

        rec = obs_recorder()
        if rec is not None:
            hits = sum(1 for entry in entries if entry["cached"])
            counts = {
                "store": hits,
                "fresh": len(pending),
                "invalid": len(entries) - hits - len(pending),
            }
            for source, count in counts.items():
                if count:
                    rec.inc("tune.points", count, source=source)

        if pending:
            with obs_span("tune.candidate_chunk", cat="tuner", candidates=len(pending)):
                outcomes = evaluate_scenarios(
                    [entry["scenario"] for entry in pending], objective.name, jobs=jobs
                )
            if rec is not None:
                rec.inc("tune.candidates", len(pending))
            for entry, outcome in zip(pending, outcomes):
                entry["error" if isinstance(outcome, str) else "value"] = outcome
                if store is not None:
                    store.save_tuning_point(
                        entry["digest"],
                        {
                            "scenario_id": entry["scenario"].id,
                            "objective": objective.name,
                            "num_nodes": entry["num_nodes"],
                            "value": entry["value"],
                            "error": entry["error"],
                        },
                    )

    best: float | None = None
    for entry in entries:
        if entry["value"] is not None and objective.better(entry["value"], best):
            best = entry["value"]
    trace = TuningTrace(
        target=name,
        objective=objective.name,
        direction=objective.direction,
        space=space.describe(),
        points=[
            TracePoint(
                index=index,
                overrides=entry["overrides"],
                num_nodes=entry["num_nodes"],
                value=entry["value"],
                cached=entry["cached"],
                gap=_gap(entry["value"], best, objective.direction),
                error=entry["error"],
            )
            for index, entry in enumerate(entries)
        ],
        wall_time_s=elapsed_s(start),
    )
    if store is not None:
        store.save_tuning_trace(name, trace.to_dict())
    return trace


def _gap(value: float | None, optimum: float | None, direction: str) -> float | None:
    """Relative distance of ``value`` to ``optimum`` (>= 0; see TracePoint)."""
    if value is None or optimum is None:
        return None
    shortfall = optimum - value if direction == "max" else value - optimum
    return shortfall / optimum


__all__ = [
    "MAX_SPACE_POINTS",
    "point_digest",
    "rescale_scenario",
    "tune",
]
