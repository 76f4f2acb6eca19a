"""Parallel experiment execution with artifact persistence.

The registry experiments are pure functions of ``(experiment_id, scale)``,
so a full sweep is embarrassingly parallel: :func:`run_experiments` fans the
requested ids out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and the sweep's wall time is bounded by the slowest experiment instead of
the sum of all of them.

When an :class:`~repro.experiments.store.ArtifactStore` is supplied, each
finished experiment is persisted as a JSON artifact and — unless caching is
disabled — experiments whose ``(experiment_id, scale)`` key is already in
the store are *not* re-run: their stored result is returned as a cache hit.

The module keeps **one persistent worker pool** for the whole process:
experiment sweeps and autotune candidate batches share it, so repeated calls
(a tuning strategy submits one batch per search round) reuse warm workers —
imports resolved, the memoised machine cache and the topology route/distance
caches filled by earlier tasks — instead of paying process start-up and cold
caches per call.  Workers are pre-warmed by an initializer that resolves the
heavy registries (and, for candidate evaluation, the batch's machine specs)
before the first task lands.
"""

from __future__ import annotations

import atexit
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.experiments.results import ExperimentResult
from repro.experiments.store import ArtifactStore
from repro.obs import elapsed_s, now, recorder as obs_recorder, span as obs_span
from repro.obs.recorder import collecting as obs_collecting


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
    the given machine-spec payloads pre-warms the memoised machine cache (and
    with it the per-topology route/distance caches every later task shares).
    """
    from repro.experiments import harness  # noqa: F401 - import warms registry
    from repro.scenario.simulation import resolve_machine
    from repro.scenario.spec import MachineSpec

    for payload in machine_specs:
        try:
            resolve_machine(MachineSpec.from_dict(payload))
        except Exception:
            # Warm-up is best effort: an unresolvable spec will produce its
            # real error when the actual candidate is evaluated.
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
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests; automatic at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _submit_retrying(pool_args: tuple, fn, /, *args):
    """Submit to the shared pool, rebuilding it once if it has broken workers."""
    try:
        return _get_pool(*pool_args).submit(fn, *args)
    except BrokenProcessPool:
        shutdown_pool()
        return _get_pool(*pool_args).submit(fn, *args)


def _execute(
    experiment_id: str,
    scale: float,
    overrides: dict | None = None,
    collect_obs: bool = False,
) -> tuple[str, ExperimentResult, float, dict | None]:
    """Worker entry point: run one experiment and time it (picklable).

    With ``collect_obs`` a fresh task-local recorder captures this run's
    spans and metric deltas; the exported state rides back alongside the
    result for the parent to merge (worker processes cannot share the
    parent's recorder).  Without it, any recorder already installed in
    this process (the sequential path) records as usual.
    """
    # Imported here so forked/spawned workers resolve the registry themselves.
    from repro.experiments.harness import _run_registered

    if collect_obs:
        with obs_collecting() as rec:
            start = now()
            with rec.span(f"run:{experiment_id}", "runner", scale=scale):
                result = _run_registered(experiment_id, scale, overrides)
            wall = elapsed_s(start)
            state = rec.export_state()
        return experiment_id, result, wall, state
    start = now()
    with obs_span(f"run:{experiment_id}", cat="runner", scale=scale):
        result = _run_registered(experiment_id, scale, overrides)
    return experiment_id, result, elapsed_s(start), None


def _run_scenario(payload: dict) -> dict:
    """Worker entry point: evaluate one scenario payload (picklable).

    Returns a response envelope rather than raising: a single malformed
    scenario in a daemon batch must not poison its siblings.
    """
    # Imported here so forked/spawned workers resolve everything themselves.
    from repro.core.api import _evaluate_scenario
    from repro.scenario.spec import Scenario

    try:
        scenario = Scenario.from_dict(payload)
        # Batch payloads are already ``Scenario.to_dict`` output: hash them
        # as they are instead of serialising the rebuilt scenario again.
        evaluation = _evaluate_scenario(
            scenario, jobs=1, store=None, use_cache=False, payload=payload
        )
        return {
            "status": "ok",
            "scenario_id": scenario.id,
            "scenario_hash": evaluation.key,
            "wall_time_s": evaluation.wall_time_s,
            "result": evaluation.result.to_dict(),
        }
    except ValueError as error:
        # ScenarioError and the model layers' resolution-time rejections
        # are both ValueErrors: the scenario is invalid, not the batch.
        return {"status": "error", "error": str(error)}


def run_scenario_batch(payloads: list[dict]) -> list[dict]:
    """Worker entry point: evaluate a batch of scenario payloads in one task.

    Each payload must be :meth:`~repro.scenario.spec.Scenario.to_dict`
    output, whose hash is the scenario's content hash.
    """
    return [_run_scenario(payload) for payload in payloads]


def submit_scenario_batch(payloads: list[dict], *, jobs: int):
    """Submit a scenario batch to the shared persistent pool.

    The serving layer's bridge into the PR-5 worker pool: returns the
    :class:`concurrent.futures.Future` of the batch (resolve with
    ``asyncio.wrap_future`` on the event loop), whose result is one response
    envelope per payload, in input order.
    """
    pool_args = (max(1, jobs), _machine_spec_payloads(payloads))
    return _submit_retrying(pool_args, run_scenario_batch, payloads)


def _evaluate_candidate(payload: dict, objective: str) -> tuple[bool, float | str]:
    """Worker entry point: score one scenario payload (picklable).

    Returns ``(True, value)`` on success and ``(False, message)`` when the
    scenario fails resolution-time validation — candidate points of a
    tuning search may be individually invalid without aborting the batch.
    """
    # Imported here so forked/spawned workers resolve everything themselves.
    from repro.autotune.objectives import get_objective
    from repro.scenario.spec import Scenario

    try:
        scenario = Scenario.from_dict(payload)
        return True, get_objective(objective).evaluate(scenario)
    except ValueError as error:
        # ScenarioError and the model layers' resolution-time rejections
        # (e.g. a stripe wider than the file system) are both ValueErrors:
        # the candidate is invalid, not the batch.
        return False, str(error)


def _evaluate_candidate_batch(
    payloads: list[dict], objective: str, collect_obs: bool = False
):
    """Worker entry point: score a chunk of candidates in one task.

    Returns the per-candidate results; with ``collect_obs`` a
    ``(results, obs_state)`` pair instead, where ``obs_state`` is the
    chunk's task-local recorder export for the parent to merge.
    """
    if collect_obs:
        with obs_collecting() as rec:
            with rec.span("tune.candidate_chunk", "tuner", candidates=len(payloads)):
                results = [_evaluate_candidate(p, objective) for p in payloads]
                rec.inc("tune.candidates", len(payloads))
            return results, rec.export_state()
    with obs_span("tune.candidate_chunk", cat="tuner", candidates=len(payloads)):
        results = [_evaluate_candidate(payload, objective) for payload in payloads]
    rec = obs_recorder()
    if rec is not None:
        rec.inc("tune.candidates", len(payloads))
    return results


def _machine_spec_payloads(payloads: list[dict], limit: int = 8) -> tuple:
    """Distinct machine sub-specs of a candidate batch (worker warm-up)."""
    seen: dict[tuple, dict] = {}
    for payload in payloads:
        machine = payload.get("machine")
        if isinstance(machine, dict):
            key = tuple(sorted((k, repr(v)) for k, v in machine.items()))
            if key not in seen:
                seen[key] = machine
                if len(seen) >= limit:
                    break
    return tuple(seen.values())


def evaluate_candidates(
    payloads: list[dict], objective: str, *, jobs: int = 1
) -> list[tuple[bool, float | str]]:
    """Score a batch of scenario payloads against a named objective.

    The tuning counterpart of :func:`run_experiments`: candidate scenarios
    are pure data (``Scenario.to_dict`` payloads), so a batch fans out over
    the shared persistent worker pool exactly like a figure sweep.  The
    batch is split into a few contiguous chunks per worker — one pickled
    task per chunk instead of per candidate — and a strategy's successive
    batches land on the same warm workers (modules imported, machine and
    topology caches filled by earlier rounds).  Results come back in input
    order; a candidate the scenario tree rejects yields ``(False, message)``
    instead of poisoning the batch.

    Args:
        payloads: ``Scenario.to_dict`` outputs, one per candidate.
        objective: a registered objective name
            (see :data:`repro.autotune.objectives.OBJECTIVES`).
        jobs: worker processes; ``1`` evaluates in-process.
    """
    if jobs <= 1 or len(payloads) <= 1:
        return _evaluate_candidate_batch(payloads, objective)
    # Amortise pickling/dispatch: a handful of chunks per worker balances
    # task-size variance against per-task overhead.
    chunk_size = max(1, -(-len(payloads) // (jobs * 4)))
    chunks = [
        payloads[start : start + chunk_size]
        for start in range(0, len(payloads), chunk_size)
    ]
    pool_args = (jobs, _machine_spec_payloads(payloads))
    rec = obs_recorder()
    collect = rec is not None
    futures = [
        _submit_retrying(
            pool_args, _evaluate_candidate_batch, chunk, objective, collect
        )
        for chunk in chunks
    ]
    results: list[tuple[bool, float | str]] = []
    for future in futures:
        outcome = future.result()
        if collect:
            chunk_results, state = outcome
            if rec is not None and state is not None:
                rec.merge_state(state)
            results.extend(chunk_results)
        else:
            results.extend(outcome)
    return results


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
    for experiment_id in ids:
        _, result, wall_time, _state = _execute(experiment_id, scale, overrides)
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
        _submit_retrying(pool_args, _execute, eid, scale, overrides, collect)
        for eid in ids
    }
    failed = False
    try:
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                experiment_id, result, wall_time, state = future.result()
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
