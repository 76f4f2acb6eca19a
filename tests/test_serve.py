"""Tests for the evaluation daemon: service and HTTP front end.

No ``pytest-asyncio`` in the container, so async tests run their own event
loop via ``asyncio.run`` — which also mirrors how the daemon itself runs.
"""

import asyncio
import json
import socket
import threading
import urllib.request

import pytest

from repro.experiments.store import ArtifactStore
from repro.scenario.registry import get_scenario
from repro.serve import EvaluationService, ServeClient, ServerThread
from repro.serve.client import ServeError

SCALE = 16.0


def payload_for(name: str = "fig08", **overrides) -> dict:
    scenario = get_scenario(name, scale=SCALE)
    if overrides:
        scenario = scenario.with_overrides(overrides)
    return scenario.to_dict()


class TestEvaluationService:
    def test_concurrent_identical_requests_evaluate_once(self, tmp_path):
        """The tentpole invariant: N clients, one simulation."""
        service = EvaluationService(ArtifactStore(tmp_path))
        payload = payload_for()

        async def main():
            envelopes = await asyncio.gather(
                *(service.evaluate(payload) for _ in range(6))
            )
            return envelopes

        envelopes = asyncio.run(main())
        assert all(env["status"] == "ok" for env in envelopes)
        assert len({env["scenario_hash"] for env in envelopes}) == 1
        assert service.stats["evaluated"] == 1
        assert service.stats["deduped"] == 5

    def test_warm_cache_served_without_simulation(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        payload = payload_for()
        cold = asyncio.run(EvaluationService(store).evaluate(payload))
        assert cold["status"] == "ok" and not cold["cached"]

        from repro.scenario import simulation

        def boom(*args, **kwargs):
            raise AssertionError("warm hit re-simulated")

        monkeypatch.setattr(simulation.Simulation, "run", boom)
        service = EvaluationService(store)
        warm = asyncio.run(service.evaluate(payload))
        assert warm["cached"] and warm["result"] == cold["result"]
        assert service.stats["cache_hits"] == 1

    def test_invalid_scenario_is_an_error_envelope(self):
        service = EvaluationService()
        envelope = asyncio.run(service.evaluate({"bogus": 1}))
        assert envelope["status"] == "error"
        assert service.stats["errors"] == 1

    def test_one_bad_request_does_not_poison_a_batch(self):
        service = EvaluationService()

        async def main():
            return await asyncio.gather(
                service.evaluate(payload_for()),
                service.evaluate({"bogus": 1}),
            )

        good, bad = asyncio.run(main())
        assert good["status"] == "ok"
        assert bad["status"] == "error"

    def test_distinct_scenarios_share_one_batch(self):
        service = EvaluationService(batch_window_s=0.05)
        payloads = [
            payload_for(**{"io.buffer_size": (1 + i) * 1024 * 1024}) for i in range(3)
        ]

        async def main():
            return await asyncio.gather(*(service.evaluate(p) for p in payloads))

        envelopes = asyncio.run(main())
        assert all(env["status"] == "ok" for env in envelopes)
        assert service.stats["batches"] == 1
        assert service.stats["evaluated"] == 3

    def test_request_arriving_mid_batch_is_not_stranded(self):
        """A scenario submitted while a batch is evaluating must still be
        flushed: at that moment the flush task exists and is not done, so
        ``evaluate`` schedules no new one — the running task has to sweep
        up the late arrival itself."""
        service = EvaluationService(batch_window_s=0.01)
        real_run = service._run_batch

        async def main():
            batch_started = asyncio.Event()
            batch_release = asyncio.Event()

            async def gated_run(payloads):
                batch_started.set()
                await batch_release.wait()
                return await real_run(payloads)

            service._run_batch = gated_run
            first = asyncio.ensure_future(service.evaluate(payload_for()))
            await batch_started.wait()  # first batch is now "evaluating"
            second = asyncio.ensure_future(
                service.evaluate(
                    payload_for(**{"io.buffer_size": 2 * 1024 * 1024})
                )
            )
            await asyncio.sleep(0.05)  # second lands in _pending mid-batch
            batch_release.set()
            return await asyncio.wait_for(
                asyncio.gather(first, second), timeout=60
            )

        first, second = asyncio.run(main())
        assert first["status"] == "ok"
        assert second["status"] == "ok"
        assert service.stats["evaluated"] == 2

    def test_snapshot_reports_backend(self, tmp_path):
        service = EvaluationService(ArtifactStore(tmp_path))
        snapshot = service.snapshot()
        assert snapshot["inflight"] == 0
        assert str(tmp_path) in snapshot["store"]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("serve-store"))
    with ServerThread(store=store, jobs=1) as running:
        yield running


class TestHttpFrontend:
    def test_healthz(self, server):
        assert ServeClient(server.url).health() == {"status": "ok"}

    def test_evaluate_cold_then_warm(self, server):
        client = ServeClient(server.url)
        payload = payload_for(**{"io.buffer_size": 7 * 1024 * 1024})
        cold = client.evaluate(payload)
        assert cold["status"] == "ok" and not cold["cached"]
        warm = client.evaluate(payload)
        assert warm["cached"] and warm["scenario_hash"] == cold["scenario_hash"]
        assert warm["result"] == cold["result"]

    def test_concurrent_clients_dedupe(self, server):
        client = ServeClient(server.url)
        payload = payload_for(**{"io.buffer_size": 9 * 1024 * 1024})
        before = client.stats()["evaluated"]
        results = [None, None]

        def hit(slot):
            results[slot] = client.evaluate(payload)

        threads = [threading.Thread(target=hit, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(r is not None and r["status"] == "ok" for r in results)
        assert client.stats()["evaluated"] == before + 1

    def test_evaluate_batch_streams_indexed_envelopes(self, server):
        client = ServeClient(server.url)
        payloads = [
            payload_for(**{"io.buffer_size": (11 + i) * 1024 * 1024})
            for i in range(3)
        ]
        envelopes = sorted(client.evaluate_batch(payloads), key=lambda e: e["index"])
        assert [env["index"] for env in envelopes] == [0, 1, 2]
        assert all(env["status"] == "ok" for env in envelopes)

    def test_stats_counts_requests(self, server):
        stats = ServeClient(server.url).stats()
        assert stats["requests"] >= 1
        assert "evaluated" in stats and "cache_hits" in stats

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_get_on_evaluate_is_405(self, server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/evaluate")
        assert excinfo.value.code == 405

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/evaluate", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_invalid_scenario_is_an_error_envelope(self, server):
        envelope = ServeClient(server.url).evaluate({"bogus": 1})
        assert envelope["status"] == "error"

    def test_malformed_content_length_is_400(self, server):
        """A non-numeric Content-Length gets a 400, not a dropped socket."""
        host, _, port = server.url.removeprefix("http://").partition(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /evaluate HTTP/1.1\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            response = b""
            while b"\r\n" not in response:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"

    def test_client_rejects_unreachable_daemon(self):
        client = ServeClient("http://127.0.0.1:1", timeout_s=2)
        with pytest.raises(ServeError):
            client.health()


class TestFiguresEndpoint:
    """``GET /figures/<id>.csv``: store-driven figure CSV off the daemon."""

    @pytest.fixture(scope="class")
    def figure_server(self, tmp_path_factory):
        from repro.experiments.results import ExperimentResult, Series
        from repro.reporting.paperdata import PAPER_FIGURES

        store = ArtifactStore(tmp_path_factory.mktemp("figure-store"))
        figure = PAPER_FIGURES["fig09"]
        series = []
        for paper in figure.series:
            curve = Series(paper.label)
            for x, value in zip(paper.xs, paper.values):
                curve.add(x, value)
            series.append(curve)
        store.save(
            ExperimentResult(
                experiment_id="fig09",
                title=figure.caption,
                machine="mira",
                x_label=figure.x_units,
                series=series,
            ),
            scale=8.0,
            wall_time_s=0.1,
        )
        with ServerThread(store=store, jobs=1) as running:
            yield running

    def test_served_csv_matches_the_store_render(self, figure_server):
        from repro.reporting.figures import figure_csv_from_store

        with urllib.request.urlopen(
            f"{figure_server.url}/figures/fig09.csv"
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/csv")
            body = response.read().decode("utf-8")
        assert body.startswith("figure,series,x,")
        assert "fig09,TAPIOCA," in body
        assert body == figure_csv_from_store(
            figure_server.service.store, "fig09"
        )

    def test_unknown_figure_is_404(self, figure_server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(f"{figure_server.url}/figures/fig99.csv")
        assert excinfo.value.code == 404
        assert "unknown figure" in json.load(excinfo.value)["error"]

    def test_missing_artifact_is_404(self, figure_server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(f"{figure_server.url}/figures/fig13.csv")
        assert excinfo.value.code == 404
        assert "no stored artifact" in json.load(excinfo.value)["error"]

    def test_post_is_405(self, figure_server):
        request = urllib.request.Request(
            f"{figure_server.url}/figures/fig09.csv", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405

    def test_storeless_daemon_is_404(self):
        with ServerThread(store=None) as running:
            with pytest.raises(urllib.request.HTTPError) as excinfo:
                urllib.request.urlopen(f"{running.url}/figures/fig09.csv")
            assert excinfo.value.code == 404
            assert "no artifact store" in json.load(excinfo.value)["error"]
