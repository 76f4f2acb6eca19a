"""Daemon observability under concurrency: /stats consistency and /metrics.

Satellite of the instrumentation PR: hammer a live daemon with N client
threads mixing fresh, cached, and duplicate submissions, then assert the
stats counters add up and the latency histogram saw every request — and
that ``GET /metrics`` parses as Prometheus text exposition.
"""

import asyncio
import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from test_obs import parse_prometheus_text

from repro.experiments.store import ArtifactStore
from repro.scenario.registry import get_scenario
from repro.serve import ServeClient, ServerThread
from repro.utils.units import MIB

SCALE = 16.0
CLIENTS = 8
DISTINCT = 6


@pytest.fixture(scope="module")
def hammered_server(tmp_path_factory):
    """One daemon driven hard by concurrent clients; yields (server, sent)."""
    store = ArtifactStore(tmp_path_factory.mktemp("serve-metrics"))
    base = get_scenario("fig08", scale=SCALE)
    distinct = [
        base.with_overrides({"io.buffer_size": (1 + index) * MIB}).to_dict()
        for index in range(DISTINCT)
    ]
    # Three wavefronts: cold (all fresh), warm (all cache hits), and a
    # duplicate burst (one fresh evaluation, the rest deduped in flight).
    duplicate = base.with_overrides({"io.buffer_size": (DISTINCT + 1) * MIB}).to_dict()
    with ServerThread(store=store, jobs=1) as server:
        client = ServeClient(server.url)
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            cold = list(pool.map(client.evaluate, distinct))
            warm = list(pool.map(client.evaluate, distinct))
            _hold_evaluation_until(server.service, len(cold) + len(warm) + CLIENTS)
            burst = list(pool.map(client.evaluate, [duplicate] * CLIENTS))
        sent = len(cold) + len(warm) + len(burst)
        assert all(env["status"] == "ok" for env in cold + warm + burst)
        yield server, client, sent


def _hold_evaluation_until(service, requests: int, timeout_s: float = 30.0) -> None:
    """Hold the service's next evaluations until ``requests`` requests have
    reached it, so every duplicate of the burst lands while the first one
    is still in flight (deduped), never after it is stored (a cache hit).

    A request is counted and passes the cache and dedup gates in one step of
    the event loop, so once the count is reached every burst request has
    been deduped.  The timeout only keeps a broken daemon from hanging the
    suite; the counter assertions then fail."""
    run_batch = service._run_batch

    async def held(payloads):
        deadline = time.monotonic() + timeout_s
        while service.stats["requests"] < requests and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        return await run_batch(payloads)

    service._run_batch = held


def _get(url: str):
    with urllib.request.urlopen(url) as response:
        return response


class TestStatsUnderConcurrency:
    def test_counters_add_up(self, hammered_server):
        _, client, sent = hammered_server
        stats = client.stats()
        assert stats["requests"] == sent
        assert stats["errors"] == 0
        # Every request is exactly one of: fresh evaluation, warm cache
        # hit, or deduped against an in-flight evaluation.
        assert (
            stats["evaluated"] + stats["cache_hits"] + stats["deduped"]
            == stats["requests"]
        )
        assert stats["evaluated"] == DISTINCT + 1
        assert stats["cache_hits"] == DISTINCT
        assert stats["deduped"] == CLIENTS - 1

    def test_no_stranded_work(self, hammered_server):
        _, client, _ = hammered_server
        stats = client.stats()
        assert stats["inflight"] == 0
        assert stats["pending"] == 0

    def test_latency_histogram_saw_every_request(self, hammered_server):
        server, client, sent = hammered_server
        stats = client.stats()
        assert server.service.latency.count == sent
        assert 0.0 < stats["latency_p50_s"] <= stats["latency_p95_s"]
        assert stats["latency_mean_s"] > 0.0

    def test_batch_size_histogram_counts_batches(self, hammered_server):
        server, client, _ = hammered_server
        assert server.service.batch_sizes.count == client.stats()["batches"]


class TestMetricsEndpoint:
    def test_metrics_parses_as_prometheus_text(self, hammered_server):
        server, client, sent = hammered_server
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        samples = parse_prometheus_text(text)
        assert ("repro_serve_requests_total", float(sent)) in samples[
            "repro_serve_requests_total"
        ]
        latency = dict(samples["repro_serve_request_seconds"])
        assert latency["repro_serve_request_seconds_count"] == sent

    def test_metrics_matches_stats(self, hammered_server):
        server, client, _ = hammered_server
        stats = client.stats()
        text = urllib.request.urlopen(server.url + "/metrics").read().decode()
        samples = parse_prometheus_text(text)
        for key in ("requests", "cache_hits", "deduped", "evaluated", "errors"):
            family = f"repro_serve_{key}_total"
            assert samples[family] == [(family, float(stats[key]))]

    def test_post_metrics_is_405(self, hammered_server):
        server, _, _ = hammered_server
        request = urllib.request.Request(server.url + "/metrics", data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405
        assert json.loads(excinfo.value.read())["status"] == "error"
