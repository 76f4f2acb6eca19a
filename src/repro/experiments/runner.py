"""Experiment sweeps and scenario batches, in-process or on one worker pool.

Two kinds of work run here, and both go through the same pool:

* **Experiment sweeps.**  The registry experiments are pure functions of
  ``(experiment_id, scale, overrides)``, so :func:`run_experiments` fans the
  requested ids out over worker processes, and a sweep's wall time is
  bounded by its slowest experiment.  With an
  :class:`~repro.experiments.store.ArtifactStore`, each finished experiment
  is persisted as a JSON artifact, and an experiment whose key is already
  stored is a cache hit, not a re-run.
* **Scenario batches.**  :func:`evaluate_scenarios` is the one scenario
  worker: ``evaluate(..., jobs>1)``, the evaluation daemon and the tuner
  hand it parsed :class:`~repro.scenario.spec.Scenario` objects (which
  pickle as they are) and, for the tuner, an objective name.  A batch is
  one evaluation under one aggregation memo, returns one outcome per
  scenario in input order, and a scenario rejected with a ``ValueError``
  is an error outcome, not a failed batch.  It runs in-process for
  ``jobs=1``, otherwise in contiguous chunks on the pool.

The module keeps **one persistent worker pool** for the whole process, so
repeated calls (a sweep followed by a tune, daemon batch after daemon
batch) reuse warm workers — imports resolved, the memoised machine cache
and the topology route/distance caches filled by earlier tasks — instead of
paying process start-up and cold caches per call.  An initializer warms the
registries (and a batch's machine specs) before the first task lands.  A
worker task under an active recorder ships its spans and counters back
for the parent to merge (:func:`_observed`).
"""

from __future__ import annotations

import atexit
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.api import Evaluation, evaluate, simulate_scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.store import ArtifactStore
from repro.obs import elapsed_s, now, recorder as obs_recorder, span as obs_span
from repro.obs.recorder import collecting as obs_collecting
from repro.perfmodel.batch import memoised_aggregations
from repro.scenario.spec import Scenario


@dataclass
class RunOutcome:
    """The outcome of one experiment within a sweep.

    Attributes:
        experiment_id: registry id of the experiment.
        result: the (fresh or cached) reproduction result.
        wall_time_s: execution wall time; for cache hits, the *original*
            run's wall time as recorded in the artifact.
        cached: whether the result came from the artifact store.
    """

    experiment_id: str
    result: ExperimentResult
    wall_time_s: float
    cached: bool = False


@dataclass
class RunReport:
    """Aggregate of a sweep: per-experiment outcomes in requested order."""

    outcomes: list[RunOutcome] = field(default_factory=list)

    def results(self) -> dict[str, ExperimentResult]:
        """Results keyed by experiment id, in requested order."""
        return {outcome.experiment_id: outcome.result for outcome in self.outcomes}

    def cache_hits(self) -> list[str]:
        """Ids served from the artifact store."""
        return [o.experiment_id for o in self.outcomes if o.cached]

    def executed(self) -> list[str]:
        """Ids actually (re-)simulated."""
        return [o.experiment_id for o in self.outcomes if not o.cached]

    def failed(self) -> list[str]:
        """Ids with at least one failed qualitative check."""
        return [o.experiment_id for o in self.outcomes if not o.result.all_checks_pass()]

    def all_checks_pass(self) -> bool:
        """Whether every check of every experiment passed."""
        return not self.failed()

    def fresh_wall_time_s(self) -> float:
        """Wall time actually spent simulating in this sweep (serial sum)."""
        return sum(o.wall_time_s for o in self.outcomes if not o.cached)

    def cached_wall_time_s(self) -> float:
        """Original-run wall time represented by this sweep's cache hits."""
        return sum(o.wall_time_s for o in self.outcomes if o.cached)

    def timing_summary(self) -> str:
        """Human-readable wall-time line separating fresh from cached work.

        ``"fresh 4.21s"`` with no hits; with hits the cached rows' original
        cost is spelled out: ``"fresh 4.21s + 3 cached (orig 2.96s)"``.
        """
        fresh = f"fresh {self.fresh_wall_time_s():.2f}s"
        hits = self.cache_hits()
        if not hits:
            return fresh
        return f"{fresh} + {len(hits)} cached (orig {self.cached_wall_time_s():.2f}s)"


def _warm_worker(machine_specs: tuple = ()) -> None:
    """Worker initializer: resolve the heavy registries before the first task.

    Importing the experiment harness and the scenario layer pulls in every
    model module once per worker process instead of once per task; resolving
    the given machine specs pre-warms the memoised machine cache (and with it
    the per-topology route/distance caches every later task shares).
    """
    from repro.experiments import harness  # noqa: F401 - import warms registry
    from repro.scenario.simulation import resolve_machine

    for spec in machine_specs:
        try:
            resolve_machine(spec)
        except Exception:
            # Warm-up is best effort: an unresolvable spec will produce its
            # real error when the actual scenario is evaluated.
            pass


#: The process-wide worker pool, created on first parallel call and reused
#: until the worker count changes or the interpreter exits.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int, machine_specs: tuple = ()) -> ProcessPoolExecutor:
    """The shared executor, (re)created only when the worker count changes."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(machine_specs,),
        )
        _POOL_WORKERS = workers
        # The exit hook is the executor's own method: a function of this
        # module would hold its globals, and with them every purged and
        # re-imported copy of the module.
        atexit.register(_POOL.shutdown, wait=False, cancel_futures=True)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests; automatic at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        atexit.unregister(_POOL.shutdown)
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def _submit_retrying(pool_args: tuple, fn, /, *args):
    """Submit to the shared pool, rebuilding it once if it has broken workers."""
    try:
        return _get_pool(*pool_args).submit(fn, *args)
    except BrokenProcessPool:
        shutdown_pool()
        return _get_pool(*pool_args).submit(fn, *args)


def _observed(collect_obs: bool, fn, /, *args):
    """Worker entry point: ``(fn(*args), obs_state)`` (picklable).

    With ``collect_obs`` a fresh task-local recorder captures the task's
    spans and metric deltas, and ``obs_state`` is its export for the parent
    to merge (worker processes cannot share the parent's recorder).
    Without it, any recorder already installed in this process (the
    sequential path) records as usual and ``obs_state`` is ``None``.
    """
    if not collect_obs:
        return fn(*args), None
    with obs_collecting() as rec:
        value = fn(*args)
        return value, rec.export_state()


def _run_experiment(
    experiment_id: str, scale: float, overrides: dict | None
) -> tuple[ExperimentResult, float]:
    """Run one registered experiment; its result and wall time."""
    # Imported here so forked/spawned workers resolve the registry themselves.
    from repro.experiments.harness import _run_registered

    start = now()
    with obs_span(f"run:{experiment_id}", cat="runner", scale=scale):
        result = _run_registered(experiment_id, scale, overrides)
    return result, elapsed_s(start)


def _evaluate_batch(scenarios: list[Scenario], objective: str | None) -> list:
    """Every scenario's outcome, as one evaluation sharing one aggregation memo.

    See :func:`evaluate_scenarios` for the outcomes.  A ``ValueError`` is
    the outcome of its scenario alone: :class:`ScenarioError` and the model
    layers' resolution-time rejections (a stripe wider than the file
    system) both mean the scenario is invalid, not the batch.
    """
    outcomes: list = []
    with memoised_aggregations():
        for scenario in scenarios:
            try:
                if objective is None:
                    outcomes.append(simulate_scenario(scenario))
                else:
                    outcomes.append(evaluate(scenario, objective=objective).value)
            except ValueError as error:
                outcomes.append(str(error))
    return outcomes


def evaluate_scenarios(
    scenarios: list[Scenario], objective: str | None = None, *, jobs: int = 1
) -> list[Evaluation | float | str]:
    """Evaluate a batch of scenarios: the one scenario worker.

    With ``jobs`` 1 the batch runs in-process; otherwise it is split into a
    few contiguous chunks per worker (one pickled task per chunk, not per
    scenario) on the shared pool.  Outcomes come back in input order, one
    per scenario:

    * without ``objective``, an :class:`~repro.core.api.Evaluation` with
      the result and wall time of :func:`~repro.core.api.simulate_scenario`;
    * with a registered objective name (see
      :data:`repro.autotune.objectives.OBJECTIVES`), the objective value;
    * the error message, for a scenario rejected with a ``ValueError``.
    """
    if jobs <= 1:
        return _evaluate_batch(scenarios, objective)
    # Amortise pickling/dispatch: a handful of chunks per worker balances
    # task-size variance against per-task overhead.
    chunk_size = max(1, -(-len(scenarios) // (jobs * 4)))
    machine_specs = tuple(dict.fromkeys(scenario.machine for scenario in scenarios))
    pool_args = (jobs, machine_specs[:8])
    rec = obs_recorder()
    futures = [
        _submit_retrying(
            pool_args,
            _observed,
            rec is not None,
            _evaluate_batch,
            scenarios[start : start + chunk_size],
            objective,
        )
        for start in range(0, len(scenarios), chunk_size)
    ]
    outcomes: list = []
    for future in futures:
        chunk, state = future.result()
        if rec is not None and state is not None:
            rec.merge_state(state)
        outcomes.extend(chunk)
    return outcomes


def run_experiments(
    ids: list[str] | None = None,
    *,
    scale: float = 1.0,
    jobs: int = 1,
    store: ArtifactStore | None = None,
    use_cache: bool = True,
    fail_fast: bool = False,
    on_outcome: Callable[[RunOutcome], None] | None = None,
    overrides: Mapping | None = None,
) -> RunReport:
    """Run a set of experiments, optionally in parallel and against a store.

    Args:
        ids: experiment ids to run (default: every registered experiment).
        scale: node-count divisor forwarded to each experiment.
        jobs: number of worker processes; ``1`` runs in-process (which keeps
            monkeypatched registries and debuggers working).
        store: artifact store to read cached results from and persist fresh
            results into; ``None`` disables persistence entirely.
        use_cache: when a store is given, serve ``(id, scale)`` hits from it
            instead of re-running.
        fail_fast: stop scheduling new work as soon as one experiment fails
            a qualitative check (already-running workers finish their
            current experiment but further ones are cancelled).
        on_outcome: progress callback invoked for every finished experiment,
            cache hits included, in completion order.
        overrides: dotted-path scenario overrides applied to every requested
            experiment's base scenario; part of the artifact cache key, so
            overridden runs never collide with as-published runs.

    Returns:
        A :class:`RunReport` whose outcomes follow the requested id order
        (the completion order is intentionally *not* exposed so parallel and
        sequential sweeps are indistinguishable to callers).

    Raises:
        KeyError: if any requested id is not registered.
    """
    from repro.experiments.harness import (
        EXPERIMENTS,
        list_experiments,
        unknown_experiment_message,
    )

    # Dedupe while preserving order: a repeated id must not run twice in
    # sequential mode while running once in parallel mode.
    requested = list(dict.fromkeys(ids if ids is not None else list_experiments()))
    unknown = [eid for eid in requested if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError("; ".join(unknown_experiment_message(eid) for eid in unknown))

    overrides = dict(overrides) if overrides else None
    outcomes: dict[str, RunOutcome] = {}

    def record(outcome: RunOutcome) -> None:
        outcomes[outcome.experiment_id] = outcome
        rec = obs_recorder()
        if rec is not None:
            rec.inc(
                "runner.experiments",
                source="cached" if outcome.cached else "fresh",
            )
        if on_outcome is not None:
            on_outcome(outcome)

    # Serve cache hits first — they never cost a worker slot.
    to_run: list[str] = []
    for experiment_id in requested:
        envelope = None
        if store is not None and use_cache:
            envelope = store.cached_envelope(experiment_id, scale, overrides)
        if envelope is not None:
            record(
                RunOutcome(
                    experiment_id=experiment_id,
                    result=ExperimentResult.from_dict(envelope["result"]),
                    wall_time_s=envelope.get("wall_time_s", 0.0),
                    cached=True,
                )
            )
        else:
            to_run.append(experiment_id)

    stop = fail_fast and any(
        not outcome.result.all_checks_pass() for outcome in outcomes.values()
    )

    if to_run and not stop:
        try:
            with obs_span(
                "runner.sweep",
                cat="runner",
                experiments=len(to_run),
                scale=scale,
                jobs=jobs,
            ):
                if jobs <= 1 or len(to_run) == 1:
                    _run_sequential(to_run, scale, overrides, store, fail_fast, record)
                else:
                    _run_parallel(
                        to_run, scale, overrides, jobs, store, fail_fast, record
                    )
        finally:
            # Artifacts are saved with the manifest refresh deferred; one
            # rebuild at the end keeps an N-experiment sweep O(N) reads.
            if store is not None and any(not o.cached for o in outcomes.values()):
                store.refresh_manifest()

    return RunReport(
        outcomes=[outcomes[eid] for eid in requested if eid in outcomes]
    )


def _persist(
    store: ArtifactStore | None,
    result: ExperimentResult,
    scale: float,
    wall_time_s: float,
    overrides: dict | None,
) -> None:
    if store is not None:
        store.save(
            result,
            scale=scale,
            wall_time_s=wall_time_s,
            update_manifest=False,
            overrides=overrides,
        )


def _run_sequential(
    ids: list[str],
    scale: float,
    overrides: dict | None,
    store: ArtifactStore | None,
    fail_fast: bool,
    record: Callable[[RunOutcome], None],
) -> None:
    # One evaluation: later experiments reuse the aggregations earlier ones
    # memoised.
    with memoised_aggregations():
        for experiment_id in ids:
            result, wall_time = _run_experiment(experiment_id, scale, overrides)
            _persist(store, result, scale, wall_time, overrides)
            record(RunOutcome(experiment_id, result, wall_time))
            if fail_fast and not result.all_checks_pass():
                break


def _run_parallel(
    ids: list[str],
    scale: float,
    overrides: dict | None,
    jobs: int,
    store: ArtifactStore | None,
    fail_fast: bool,
    record: Callable[[RunOutcome], None],
) -> None:
    # The shared pool is sized to the requested job count and *kept alive*
    # after the sweep: a follow-up run-all or tuning batch reuses the warm
    # workers instead of re-importing the world.
    pool_args = (jobs, ())
    rec = obs_recorder()
    collect = rec is not None
    pending = {
        _submit_retrying(
            pool_args, _observed, collect, _run_experiment, eid, scale, overrides
        ): eid
        for eid in ids
    }
    failed = False
    try:
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                experiment_id = pending.pop(future)
                (result, wall_time), state = future.result()
                if state is not None and rec is not None:
                    rec.merge_state(state)
                _persist(store, result, scale, wall_time, overrides)
                record(RunOutcome(experiment_id, result, wall_time))
                if fail_fast and not result.all_checks_pass():
                    failed = True
            if failed:
                break
    finally:
        for future in pending:
            future.cancel()
