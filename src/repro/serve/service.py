"""The evaluation service: dedup, cache, and microbatching.

:class:`EvaluationService` is the single asyncio-side brain the HTTP front
end talks to.  One request flows through three gates, each cheaper than the
next:

1. **Warm cache** — the scenario's content hash is looked up in the shared
   :class:`~repro.experiments.store.ArtifactStore`; a hit is returned
   without re-simulating (and without touching the worker pool).
2. **In-flight dedup** — if the same hash is already being evaluated, the
   request awaits the existing future; N concurrent identical submissions
   trigger exactly one evaluation.
3. **Microbatched evaluation** — fresh scenarios are collected for a short
   window and submitted as one batch to the persistent worker pool from
   :mod:`repro.experiments.runner` (in-process for ``jobs=1``), so a burst
   of K requests costs one task dispatch, not K.

Responses are *envelopes* (plain dicts), never exceptions: a malformed
scenario yields ``{"status": "error", ...}`` so one bad request cannot
poison a batch or crash the daemon.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping

from repro.experiments.store import ArtifactStore
from repro.obs import Histogram, now, prometheus_text, recorder as obs_recorder
from repro.obs.clock import round_wall
from repro.scenario.spec import Scenario


def _error_envelope(message: str) -> dict:
    return {"status": "error", "error": message}


class EvaluationService:
    """Shared evaluation core behind every ``repro serve`` front end.

    Args:
        store: artifact store serving warm hits and receiving fresh results
            (``None`` disables persistence; dedup still applies).
        jobs: worker processes for scenario batches.  ``1`` evaluates in a
            thread of this process — which keeps monkeypatched registries
            visible to tests — while still overlapping with the event loop.
        batch_window_s: how long to collect requests before flushing a
            batch; the latency cost of batching, paid only by cold requests.
        use_cache: serve warm hits from the store (disable to force
            re-evaluation, e.g. after a model change).
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        jobs: int = 1,
        batch_window_s: float = 0.01,
        use_cache: bool = True,
    ) -> None:
        self.store = store
        self.jobs = max(1, int(jobs))
        self.batch_window_s = batch_window_s
        self.use_cache = use_cache
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[tuple[str, Scenario]] = []
        self._flush_task: asyncio.Task | None = None
        self.stats: dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "deduped": 0,
            "evaluated": 0,
            "errors": 0,
            "batches": 0,
        }
        # Always-on service-owned metrics (independent of the global
        # recorder): one observation per request/batch is negligible next
        # to the seconds-long simulations being served.
        self.latency = Histogram("serve.request_seconds")
        self.batch_sizes = Histogram(
            "serve.batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256)
        )

    # ------------------------------------------------------------------ #
    # Request entry point
    # ------------------------------------------------------------------ #

    async def evaluate(self, payload: Mapping[str, Any]) -> dict:
        """Evaluate one scenario payload; always returns an envelope dict.

        Also times the full request lifecycle into the always-on latency
        histogram and — when the global recorder is enabled — records one
        flat ``serve.request`` span with explicit timestamps.  (Flat, not
        stack-nested: interleaved coroutines on the event-loop thread would
        mis-nest a thread-local span stack.)
        """
        start = now()
        envelope = await self._evaluate_inner(payload)
        end = now()
        self.latency.observe(end - start)
        rec = obs_recorder()
        if rec is not None:
            rec.add_span(
                "serve.request",
                start,
                end,
                cat="serve",
                args={
                    "status": envelope.get("status"),
                    "cached": envelope.get("cached"),
                },
            )
        return envelope

    async def _evaluate_inner(self, payload: Mapping[str, Any]) -> dict:
        """The three-gate request path (cache -> dedup -> batch)."""
        self.stats["requests"] += 1
        try:
            scenario = Scenario.from_dict(payload)
        except (ValueError, TypeError) as error:
            self.stats["errors"] += 1
            return _error_envelope(str(error))
        scenario_hash = scenario.content_hash()

        cached = self._from_cache(scenario, scenario_hash)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return cached

        existing = self._inflight.get(scenario_hash)
        if existing is not None:
            self.stats["deduped"] += 1
            return dict(await asyncio.shield(existing))

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[scenario_hash] = future
        self._pending.append((scenario_hash, scenario))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush_after_window())
        return dict(await asyncio.shield(future))

    def _from_cache(self, scenario: Scenario, scenario_hash: str) -> dict | None:
        """The warm-cache envelope for a hash, or ``None`` on a miss."""
        if self.store is None or not self.use_cache:
            return None
        envelope = self.store.load_scenario_result(scenario_hash)
        if envelope is None or "result" not in envelope:
            return None
        return {
            "status": "ok",
            "cached": True,
            "scenario_id": scenario.id,
            "scenario_hash": scenario_hash,
            "wall_time_s": envelope.get("wall_time_s", 0.0),
            "result": envelope["result"],
        }

    # ------------------------------------------------------------------ #
    # Batching
    # ------------------------------------------------------------------ #

    async def _flush_after_window(self) -> None:
        """Collect requests for one window, then evaluate them as a batch.

        Loops while requests keep arriving: a scenario submitted while a
        batch is awaiting the worker pool lands in ``_pending`` at a moment
        when ``evaluate`` will not schedule a new flush task (this one is
        not done), so this task must sweep it up itself or the request
        would strand forever.  The no-pending check and the final return
        run without an intervening ``await``, so no request can slip in
        between them and find a task that is neither collecting nor done.
        """
        while True:
            if self.batch_window_s > 0:
                await asyncio.sleep(self.batch_window_s)
            batch, self._pending = self._pending, []
            if not batch:
                return
            self.stats["batches"] += 1
            self.batch_sizes.observe(len(batch))
            payloads = [scenario.to_dict() for _, scenario in batch]
            batch_start = now()
            try:
                responses = await self._run_batch(payloads)
            except Exception as error:  # pool died, cancellation, ...
                responses = [_error_envelope(str(error))] * len(batch)
            rec = obs_recorder()
            if rec is not None:
                rec.add_span(
                    "serve.batch",
                    batch_start,
                    now(),
                    cat="serve",
                    args={"size": len(batch)},
                )
            for (scenario_hash, scenario), response in zip(batch, responses):
                self._settle(scenario_hash, scenario, dict(response))
            if not self._pending:
                return

    async def _run_batch(self, payloads: list[dict]) -> list[dict]:
        """Evaluate one batch of payloads off the event loop."""
        from repro.experiments.runner import run_scenario_batch, submit_scenario_batch

        if self.jobs > 1:
            return await asyncio.wrap_future(
                submit_scenario_batch(payloads, jobs=self.jobs)
            )
        # jobs=1: a worker thread instead of a worker process — no pickling,
        # monkeypatched registries stay visible, the loop stays responsive.
        return await asyncio.get_running_loop().run_in_executor(
            None, run_scenario_batch, payloads
        )

    def _settle(self, scenario_hash: str, scenario: Scenario, envelope: dict) -> None:
        """Persist one batch response and resolve its in-flight future."""
        envelope.setdefault("scenario_hash", scenario_hash)
        envelope["cached"] = False
        if envelope.get("status") == "ok":
            self.stats["evaluated"] += 1
            if self.store is not None:
                self.store.save_scenario_result(
                    scenario_hash,
                    {
                        "scenario_id": scenario.id,
                        "scenario": scenario.to_dict(),
                        "wall_time_s": envelope.get("wall_time_s", 0.0),
                        "result": envelope["result"],
                    },
                )
        else:
            self.stats["errors"] += 1
        # Resolve before dropping from the in-flight map: a request landing
        # in between awaits the already-resolved future instead of slipping
        # through both the cache and the dedup gates.
        future = self._inflight.get(scenario_hash)
        if future is not None and not future.done():
            future.set_result(envelope)
        self._inflight.pop(scenario_hash, None)

    # ------------------------------------------------------------------ #
    # Introspection / shutdown
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Stats payload for ``GET /stats``.

        On top of the lifetime counters: ``inflight`` (requests awaiting a
        result), ``pending`` (queue depth of the next microbatch), and the
        latency histogram's p50/p95/mean in seconds.
        """
        return {
            **self.stats,
            "inflight": len(self._inflight),
            "pending": len(self._pending),
            "jobs": self.jobs,
            "store": self.store.backend.describe() if self.store else None,
            "cache": bool(self.store is not None and self.use_cache),
            "latency_p50_s": round_wall(self.latency.percentile(50)),
            "latency_p95_s": round_wall(self.latency.percentile(95)),
            "latency_mean_s": round_wall(
                self.latency.sum / self.latency.count if self.latency.count else 0.0
            ),
        }

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text format (``GET /metrics``).

        Exposes the service's lifetime counters, the inflight/pending
        gauges, the latency and batch-size histograms, and — when the
        global recorder is enabled — every recorded metric of the process.
        """
        snapshots: list[dict] = [
            {
                "name": f"serve.{key}",
                "kind": "counter",
                "labels": {},
                "value": float(value),
            }
            for key, value in self.stats.items()
        ]
        snapshots.append(
            {
                "name": "serve.inflight",
                "kind": "gauge",
                "labels": {},
                "value": float(len(self._inflight)),
            }
        )
        snapshots.append(
            {
                "name": "serve.pending",
                "kind": "gauge",
                "labels": {},
                "value": float(len(self._pending)),
            }
        )
        snapshots.append(self.latency.snapshot())
        snapshots.append(self.batch_sizes.snapshot())
        rec = obs_recorder()
        if rec is not None:
            snapshots.extend(metric.snapshot() for metric in rec.metrics())
        return prometheus_text(snapshots)

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Wait until every accepted request has been resolved."""
        deadline = time.monotonic() + timeout_s
        while self._inflight or self._pending:
            if time.monotonic() > deadline:
                raise TimeoutError("evaluation service did not drain in time")
            await asyncio.sleep(0.005)
