"""Scalar oracles for the contention engine.

:func:`allocate_scalar` is the dict-based progressive-filling loop over
every resource, which
:meth:`repro.multijob.contention.ContentionLedger.allocate` runs over only
the resources that can bind, and :func:`advance_scalar` the per-job fluid
loop that :class:`repro.multijob.runtime.MultiJobRuntime` runs over only the
live jobs, solving when they change and folding the peak utilization of
single-job resources once at the end.  Both visit flows in the caller's order
and resources in registration order everywhere a float accumulates, so the
``src/`` implementations must match them bit for bit.  :func:`ledger`
builds a ledger from per-flow weight dictionaries, the form the tests
write instances in.  :class:`ScalarLedger`
reads the matrix ledger back into the plain dicts the loops walk, and
:func:`utilization` gives the bandwidth a set of rates loads each resource
with, for the conservation property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from repro.multijob import runtime as multijob_runtime
from repro.multijob.contention import _EPS, ContentionLedger
from repro.multijob.runtime import _BYTES_EPS, _REL_BYTES_EPS, MultiJobRuntime
from repro.utils.validation import require


def ledger(
    resources: Sequence[tuple[tuple, float]],
    flows: Sequence[tuple[str, float, Mapping[tuple, float]]],
) -> ContentionLedger:
    """The :class:`ContentionLedger` of ``(flow_id, demand, weights)``
    triples, each flow's weights a mapping from resource key to weight."""
    flows = list(flows)
    rows = [row for row, (_, _, weights) in enumerate(flows) for _ in weights]
    keys = [key for _, _, weights in flows for key in weights]
    values = [value for _, _, weights in flows for value in weights.values()]
    return ContentionLedger(list(resources), [flow[:2] for flow in flows], (rows, keys, values))


@dataclass(frozen=True)
class Flow:
    """One row of the ledger: its demand and its non-zero weights by key."""

    demand: float
    weights: dict[tuple, float]


class ScalarLedger:
    """A :class:`ContentionLedger` as dicts: ``resources`` and ``flows``.

    Both are in registration order; a flow's weights hold only the
    resources it touches.
    """

    def __init__(self, ledger: ContentionLedger) -> None:
        self.resources = dict(zip(ledger.keys, ledger.capacity.tolist()))
        self.flows = {
            flow_id: Flow(
                demand,
                {key: w for key, w in zip(ledger.keys, row) if w > 0.0},
            )
            for flow_id, demand, row in zip(
                ledger.flow_ids, ledger.demand.tolist(), ledger.weight.tolist()
            )
        }

    def allocate(self, active=None) -> dict[str, float]:
        """The scalar loop's rates by flow id (default: every flow)."""
        ids = list(self.flows) if active is None else list(active)
        for flow_id in ids:
            require(flow_id in self.flows, f"unknown flow {flow_id!r}")
        return allocate_scalar(self, ids)[0]

    def utilization(self, rates: Mapping[str, float]) -> dict[tuple, float]:
        """Per-resource bandwidth consumed by ``rates``, flow by flow."""
        used = {key: 0.0 for key in self.resources}
        for flow_id, flow_rate in rates.items():
            for key, weight in self.flows[flow_id].weights.items():
                used[key] += flow_rate * weight
        return used


def allocate_scalar(
    ledger: ScalarLedger, ids: Sequence[str], bound: set | None = None
) -> tuple[dict[str, float], int]:
    """Reference progressive-filling loop over plain dicts.

    Flows are visited in ``ids`` order and resources in registration
    order everywhere a float accumulates, so the result is reproducible
    and bit-comparable with the ledger's solver.  Every key that enters an
    iteration's binding or saturated set is added to ``bound`` when given.
    """
    rate = {flow_id: 0.0 for flow_id in ids}
    used = {key: 0.0 for key in ledger.resources}
    unfrozen = list(ids)
    iterations = 0
    while unfrozen:
        iterations += 1
        # How far can every unfrozen rate rise together?
        step = min(
            ledger.flows[flow_id].demand - rate[flow_id] for flow_id in unfrozen
        )
        binding_keys: list[tuple] = []
        for key, capacity in ledger.resources.items():
            weight_sum = 0.0
            for flow_id in unfrozen:
                weight_sum += ledger.flows[flow_id].weights.get(key, 0.0)
            if weight_sum <= 0.0:
                continue
            headroom = (capacity - used[key]) / weight_sum
            if headroom < step - _EPS * capacity:
                step = max(0.0, headroom)
                binding_keys = [key]
            elif abs(headroom - step) <= _EPS * capacity:
                binding_keys.append(key)
        if step > 0.0:
            for flow_id in unfrozen:
                rate[flow_id] += step
                for key, weight in ledger.flows[flow_id].weights.items():
                    used[key] += step * weight
        # Freeze flows that hit their demand or touch a saturated resource.
        saturated = set(binding_keys)
        for key, capacity in ledger.resources.items():
            if used[key] >= capacity * (1.0 - _EPS):
                saturated.add(key)
        if bound is not None:
            bound.update(saturated)
        newly_frozen = {
            flow_id
            for flow_id in unfrozen
            if rate[flow_id] >= ledger.flows[flow_id].demand * (1.0 - _EPS)
            or any(key in saturated for key in ledger.flows[flow_id].weights)
        }
        if not newly_frozen:
            # Every remaining flow advanced to its demand cap.
            break
        unfrozen = [
            flow_id for flow_id in unfrozen if flow_id not in newly_frozen
        ]
    return rate, iterations


def allocate(ledger: ContentionLedger, rows=None) -> list[float]:
    """:meth:`ContentionLedger.allocate` by the scalar loop, in ``rows`` order."""
    ids = list(ledger.flow_ids)
    if rows is not None:
        ids = [ids[row] for row in rows]
    rates = ScalarLedger(ledger).allocate(ids)
    return [rates[flow_id] for flow_id in ids]


def utilization(ledger: ContentionLedger, rows, rates) -> np.ndarray:
    """Bandwidth each resource carries when ``rows`` run at ``rates``, by the
    per-flow dict fold, in column order."""
    scalar = ScalarLedger(ledger)
    by_id = {ledger.flow_ids[row]: float(rate) for row, rate in zip(rows, rates)}
    return np.array(list(scalar.utilization(by_id).values()))


def advance_scalar(
    runtime: MultiJobRuntime, peak: dict[tuple, float], now: float
) -> tuple[dict[str, float], dict[str, float]]:
    """The original per-job fluid loop over plain Python state.

    Returns each job's I/O start and finish times by name.
    """
    done_at = {
        job.name: job.total_bytes
        - max(_BYTES_EPS, job.total_bytes * _REL_BYTES_EPS)
        for job in runtime.jobs
    }
    pending = {job.name: job for job in runtime.jobs}
    done = {job.name: 0.0 for job in runtime.jobs}
    io_start: dict[str, float] = {}
    finish: dict[str, float] = {}
    while pending:
        active = [
            job for job in pending.values() if job.ready_s <= now + _BYTES_EPS
        ]
        future_ready = [
            job.ready_s for job in pending.values() if job.ready_s > now
        ]
        if not active:
            now = min(future_ready)
            continue
        for job in active:
            if job.name not in io_start:
                io_start[job.name] = max(now, job.ready_s)
        rates = runtime.ledger.allocate([job.name for job in active])
        if all(rates[job.name] == 0.0 for job in active):
            # Nothing moves this slice; jump to the next arrival, or —
            # when there is none — nothing will ever move again.
            if not future_ready:
                raise runtime._starved([job.name for job in active])
            now = min(future_ready)
            continue
        for key, usage in runtime.ledger.utilization(rates).items():
            capacity = runtime.ledger.resources[key]
            peak[key] = max(peak[key], usage / capacity)
        # Advance to the earliest of: slice end, a completion, an arrival.
        horizon = now + multijob_runtime._SLICE_S
        if future_ready:
            horizon = min(horizon, min(future_ready))
        for job in active:
            rate = rates[job.name]
            if rate > 0.0:
                remaining = job.total_bytes - done[job.name]
                horizon = min(horizon, now + remaining / rate)
        dt = max(horizon - now, 0.0)
        for job in active:
            done[job.name] += rates[job.name] * dt
        now = horizon
        completed = False
        for job in list(active):
            if done[job.name] >= done_at[job.name]:
                finish[job.name] = now
                del pending[job.name]
                completed = True
        if dt == 0.0 and not completed:
            # A zero-width slice that completes nothing recomputes the
            # identical state next iteration — a numerical stall.
            raise runtime._starved([job.name for job in active])
    return io_start, finish


def run_scalar(runtime: MultiJobRuntime):
    """:meth:`MultiJobRuntime.run` on the scalar ledger and slice loop."""
    scalar = ScalarLedger(runtime.ledger)
    names = list(runtime.ledger.flow_ids)
    oracle = SimpleNamespace(
        jobs=runtime.jobs,
        ledger=scalar,
        _starved=lambda active: runtime._starved([names.index(n) for n in active]),
    )

    def allocate(rows=None):
        ids = names if rows is None else [names[row] for row in rows]
        return np.array(list(scalar.allocate(ids).values()))

    def advance():
        peak = {key: 0.0 for key in scalar.resources}
        now = min(job.ready_s for job in runtime.jobs)
        io_start, finish = advance_scalar(oracle, peak, now)
        return (
            list(peak.values()),
            [io_start[name] for name in names],
            [finish[name] for name in names],
        )

    runtime.ledger.allocate = allocate
    runtime._advance = advance
    return runtime.run()
