"""Scalar oracles for the contention engine.

:func:`allocate_scalar` is the dict-based progressive-filling loop and
:func:`advance_scalar` the per-job fluid loop that
:class:`repro.multijob.contention.ContentionLedger` and
:class:`repro.multijob.runtime.MultiJobRuntime` replaced with numpy array
code.  Both visit flows in the caller's order and resources in registration
order everywhere a float accumulates, so the ``src/`` implementations must
match them bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.multijob.contention import _EPS, ContentionLedger
from repro.multijob.runtime import _BYTES_EPS, _REL_BYTES_EPS, MultiJobRuntime
from repro.utils.validation import require


def allocate_scalar(
    ledger: ContentionLedger, ids: Sequence[str]
) -> tuple[dict[str, float], int]:
    """Reference progressive-filling loop over plain dicts.

    Flows are visited in ``ids`` order and resources in registration
    order everywhere a float accumulates, so the result is reproducible
    and bit-comparable with the vectorised path.
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


def allocate(ledger: ContentionLedger, active=None) -> dict[str, float]:
    """:meth:`ContentionLedger.allocate` without the memo or the numpy solver."""
    ids = list(ledger.flows) if active is None else list(active)
    for flow_id in ids:
        require(flow_id in ledger.flows, f"unknown flow {flow_id!r}")
    return allocate_scalar(ledger, ids)[0]


def advance_scalar(runtime: MultiJobRuntime, peak: dict[tuple, float], now: float) -> None:
    """The original per-job fluid loop over plain Python state."""
    done_at = {
        job.name: job.total_bytes
        - max(_BYTES_EPS, job.total_bytes * _REL_BYTES_EPS)
        for job in runtime.jobs
    }
    pending = {job.name: job for job in runtime.jobs}
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
            if job.io_start_s is None:
                job.io_start_s = max(now, job.ready_s)
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
        horizon = now + runtime.slice_s
        if future_ready:
            horizon = min(horizon, min(future_ready))
        for job in active:
            rate = rates[job.name]
            if rate > 0.0:
                remaining = job.total_bytes - job.bytes_done
                horizon = min(horizon, now + remaining / rate)
        dt = max(horizon - now, 0.0)
        for job in active:
            job.bytes_done += rates[job.name] * dt
        now = horizon
        completed = False
        for job in list(active):
            if job.bytes_done >= done_at[job.name]:
                job.finish_s = now
                runtime.ledger.remove_flow(job.name)
                del pending[job.name]
                completed = True
        if dt == 0.0 and not completed:
            # A zero-width slice that completes nothing recomputes the
            # identical state next iteration — a numerical stall.
            raise runtime._starved([job.name for job in active])


def run_scalar(runtime: MultiJobRuntime):
    """:meth:`MultiJobRuntime.run` on the scalar ledger and slice loop."""
    ledger = runtime.ledger
    ledger.allocate = lambda active=None: allocate(ledger, active)
    runtime._advance = lambda peak, now: advance_scalar(runtime, peak, now)
    return runtime.run()
