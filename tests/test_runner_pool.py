"""The shared persistent worker pool behind the experiment/tuning runner."""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.runner import evaluate_scenarios, run_experiments, shutdown_pool
from repro.scenario.registry import get_scenario


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _scenarios(count: int) -> list:
    return [get_scenario("fig08", scale=16.0)] * count


def test_pool_persists_across_candidate_batches():
    evaluate_scenarios(_scenarios(3), "bandwidth", jobs=2)
    first = runner._POOL
    assert first is not None
    evaluate_scenarios(_scenarios(3), "bandwidth", jobs=2)
    assert runner._POOL is first


def test_pool_is_rebuilt_when_worker_count_changes():
    evaluate_scenarios(_scenarios(3), "bandwidth", jobs=2)
    first = runner._POOL
    evaluate_scenarios(_scenarios(3), "bandwidth", jobs=3)
    assert runner._POOL is not first
    assert runner._POOL_WORKERS == 3


def test_experiments_and_candidates_share_one_pool():
    report = run_experiments(["fig08", "fig10"], scale=16.0, jobs=2)
    pool = runner._POOL
    assert pool is not None
    assert report.outcomes[0].result.experiment_id == "fig08"
    evaluate_scenarios(_scenarios(2), "bandwidth", jobs=2)
    assert runner._POOL is pool


def test_batched_candidates_keep_input_order_and_isolate_failures():
    scenario = get_scenario("fig08", scale=16.0)
    # Over Theta's 56 OSTs: rejected when the scenario resolves its storage.
    bad = scenario.with_overrides(
        {
            "io.kind": "mpiio",
            "io.aggregators_per_ost": 1,
            "storage.kind": "lustre",
            "storage.stripe_count": 64,
        }
    )
    scenarios = [scenario, bad, scenario, scenario, bad, scenario, scenario]
    results = evaluate_scenarios(scenarios, "bandwidth", jobs=2)
    assert len(results) == len(scenarios)
    for index, value in enumerate(results):
        if index in (1, 4):
            assert isinstance(value, str) and "stripe_count" in value
        else:
            assert value > 0


def test_sequential_path_never_creates_a_pool():
    results = evaluate_scenarios(_scenarios(2), "bandwidth", jobs=1)
    assert all(value > 0 for value in results)
    assert runner._POOL is None


def test_pool_warms_each_distinct_machine_once(monkeypatch):
    submitted = []

    def record(pool_args, fn, /, *args):
        submitted.append(pool_args)
        return real(pool_args, fn, *args)

    real = runner._submit_retrying
    monkeypatch.setattr(runner, "_submit_retrying", record)
    fig08 = get_scenario("fig08", scale=16.0)
    fig10 = get_scenario("fig10", scale=16.0)
    evaluate_scenarios([fig08, fig08, fig10, fig08], "bandwidth", jobs=2)
    workers, specs = submitted[0]
    assert workers == 2
    assert list(specs) == list(dict.fromkeys([fig08.machine, fig10.machine]))


def test_shutdown_pool_is_idempotent():
    shutdown_pool()
    shutdown_pool()
    assert runner._POOL is None


def test_purged_runner_module_is_freed():
    """The pool's exit hook holds the executor alone, not this module's
    globals: a purged copy of the module is collected."""
    import gc
    import importlib
    import sys
    import weakref

    import repro.experiments as package

    name = "repro.experiments.runner"
    original = sys.modules[name]
    try:
        del sys.modules[name]
        copy = importlib.import_module(name)
        copy.evaluate_scenarios(_scenarios(1), "bandwidth", jobs=2)
        copy.shutdown_pool()
        freed = weakref.ref(copy.run_experiments)
        del sys.modules[name], copy
        importlib.import_module(name)
        gc.collect()
        assert freed() is None
    finally:
        sys.modules[name] = original
        package.runner = original
