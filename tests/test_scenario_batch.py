"""Scenario batches on the shared worker pool: the same answers as in-process.

``evaluate(..., jobs>1)`` and a ``jobs>1`` daemon both hand their scenarios
to the runner's persistent pool; these tests pin that the pool gives the
in-process answer and that one rejected scenario does not fail its batch.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.api import evaluate
from repro.experiments.runner import shutdown_pool
from repro.scenario.registry import get_scenario
from repro.scenario.spec import (
    IOStrategySpec,
    MachineSpec,
    Scenario,
    StorageSpec,
    WorkloadSpec,
)
from repro.serve import EvaluationService
from repro.utils.units import MB, MIB


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def lustre_scenario(stripe_count: int) -> Scenario:
    """A small Theta MPI I/O scenario; over 56 stripes it fails at resolution."""
    return Scenario(
        id=f"stripe-{stripe_count}",
        machine=MachineSpec(kind="theta", num_nodes=32),
        workload=WorkloadSpec(kind="ior", bytes_per_rank=2 * MB),
        io=IOStrategySpec(kind="mpiio", aggregators_per_ost=1, buffer_size=1 * MIB),
        storage=StorageSpec(kind="lustre", stripe_count=stripe_count, stripe_size=1 * MIB),
    )


def test_pool_evaluation_equals_in_process():
    scenario = get_scenario("fig08", scale=16.0)
    serial = evaluate(scenario, jobs=1)
    pooled = evaluate(scenario, jobs=2)
    assert pooled.result.to_dict() == serial.result.to_dict()
    assert pooled.key == serial.key
    assert not pooled.cached


def test_pool_evaluation_raises_the_rejection():
    with pytest.raises(ValueError, match="stripe_count"):
        evaluate(lustre_scenario(64), jobs=2)


def test_pool_batch_isolates_a_resolution_time_rejection():
    payloads = [
        lustre_scenario(stripe).to_dict() for stripe in (8, 64, 16, 48)
    ]
    service = EvaluationService(jobs=2, batch_window_s=0.05)

    async def main():
        return await asyncio.gather(*(service.evaluate(p) for p in payloads))

    envelopes = asyncio.run(main())
    assert service.stats["batches"] == 1
    assert [envelope["status"] for envelope in envelopes] == ["ok", "error", "ok", "ok"]
    assert "stripe_count" in envelopes[1]["error"]
    for payload, envelope in zip(payloads, envelopes):
        if envelope["status"] == "ok":
            expected = evaluate(Scenario.from_dict(payload)).result.to_dict()
            assert envelope["result"] == expected
            assert envelope["scenario_id"] == payload["id"]
