"""Tests for the evaluation daemon: service and HTTP front end.

No ``pytest-asyncio`` in the container, so async tests run their own event
loop via ``asyncio.run`` — which also mirrors how the daemon itself runs.
"""

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.store import ArtifactStore
from repro.scenario.registry import get_scenario
from repro.serve import EvaluationService, ServeClient, ServerThread
from repro.serve.client import ServeError

SCALE = 16.0


def refused(request) -> tuple[int, bytes]:
    """Status and body of a request the daemon answers with an error.

    ``urlopen`` raises the error response as an ``HTTPError`` that holds
    the connection's socket; closing it here is what releases the socket.
    """
    with pytest.raises(urllib.request.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    with excinfo.value as error:
        return error.code, error.read()


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

    def test_miss_serialises_the_scenario_once(self, tmp_path, monkeypatch):
        """The hash and the stored record share one ``to_dict``, and the
        batch worker takes the parsed scenario (four calls in all before
        they were shared)."""
        from repro.scenario.spec import Scenario

        payload = payload_for()
        calls = []
        real = Scenario.to_dict

        def counting(self):
            calls.append(self.id)
            return real(self)

        monkeypatch.setattr(Scenario, "to_dict", counting)
        store = ArtifactStore(tmp_path)
        envelope = asyncio.run(EvaluationService(store).evaluate(payload))
        assert envelope["status"] == "ok" and not envelope["cached"]
        assert calls == [payload["id"]]
        stored = store.load_scenario_result(envelope["scenario_hash"])
        assert stored.scenario == payload
        assert stored.scenario_id == payload["id"]

    def test_miss_parses_the_payload_once(self, monkeypatch):
        """The batch worker evaluates the scenario the service parsed."""
        from repro.scenario.spec import Scenario

        parses = []
        real = Scenario.from_dict.__func__

        def counting(cls, payload):
            parses.append(payload["id"])
            return real(cls, payload)

        monkeypatch.setattr(Scenario, "from_dict", classmethod(counting))
        payload = payload_for(**{"io.buffer_size": 3 * 1024 * 1024})
        envelope = asyncio.run(EvaluationService(jobs=1).evaluate(payload))
        assert envelope["status"] == "ok" and not envelope["cached"]
        assert parses == [payload["id"]]

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

    def test_submit_rescales_a_scenario_file_as_evaluate_does(self, server, capsys):
        from repro.cli import main
        from repro.core.api import evaluate

        example = (
            Path(__file__).resolve().parent.parent
            / "examples" / "scenarios" / "theta_hacc_tapioca.json"
        )
        code = main(["submit", str(example), "--scale", "4", "--url", server.url, "--json"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "ok"
        local = evaluate(json.loads(example.read_text(encoding="utf-8")), scale=4)
        assert local.scenario.machine.num_nodes == 16
        assert envelope["result"] == local.result.to_dict()

    def test_stats_counts_requests(self, server):
        stats = ServeClient(server.url).stats()
        assert stats["requests"] >= 1
        assert "evaluated" in stats and "cache_hits" in stats

    def test_unknown_route_is_404(self, server):
        assert refused(f"{server.url}/nope")[0] == 404

    def test_get_on_evaluate_is_405(self, server):
        assert refused(f"{server.url}/evaluate")[0] == 405

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/evaluate", data=b"{not json", method="POST"
        )
        assert refused(request)[0] == 400

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


class TestPoolBackedDaemon:
    def test_jobs_2_daemon_returns_the_jobs_1_envelope(self, tmp_path):
        """A daemon on the worker pool answers exactly as an in-process one
        (only the host-side ``wall_time_s`` may differ)."""
        from repro.experiments.runner import shutdown_pool

        payload = payload_for(**{"io.buffer_size": 5 * 1024 * 1024})
        envelopes = []
        try:
            for jobs in (1, 2):
                store = ArtifactStore(tmp_path / f"jobs-{jobs}")
                with ServerThread(store=store, jobs=jobs) as running:
                    envelope = ServeClient(running.url).evaluate(payload)
                envelope.pop("wall_time_s")
                envelopes.append(envelope)
        finally:
            shutdown_pool()
        serial, pooled = envelopes
        assert serial["status"] == "ok" and not serial["cached"]
        assert pooled == serial


def _children(pid: int) -> list[int]:
    """Live (non-zombie) processes whose parent is ``pid``, read from /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestDaemonShutdown:
    def test_sigterm_stops_every_pool_worker(self):
        """``repro serve --jobs 2`` shuts its worker pool down on SIGTERM:
        no worker outlives the daemon."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))
        )}
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2"]
        workers: list[int] = []
        with subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        ) as daemon:
            try:
                ready, _, _ = select.select([daemon.stdout], [], [], 60)
                line = daemon.stdout.readline() if ready else ""
                assert line.startswith("serving on http://"), line
                url = line.split()[2]
                envelope = ServeClient(url).evaluate(payload_for())
                assert envelope["status"] == "ok", envelope
                workers = _children(daemon.pid)
                assert workers, "a --jobs 2 daemon evaluates on pool workers"
                daemon.send_signal(signal.SIGTERM)
                assert daemon.wait(timeout=30) == 0
                deadline = time.monotonic() + 10
                while any(map(_alive, workers)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not any(map(_alive, workers)), "pool workers outlived the daemon"
            finally:
                for pid in [daemon.pid, *workers]:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)


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
        code, body = refused(f"{figure_server.url}/figures/fig99.csv")
        assert code == 404
        assert "unknown figure" in json.loads(body)["error"]

    def test_missing_artifact_is_404(self, figure_server):
        code, body = refused(f"{figure_server.url}/figures/fig13.csv")
        assert code == 404
        assert "no stored artifact" in json.loads(body)["error"]

    def test_post_is_405(self, figure_server):
        request = urllib.request.Request(
            f"{figure_server.url}/figures/fig09.csv", data=b"{}", method="POST"
        )
        assert refused(request)[0] == 405

    def test_storeless_daemon_is_404(self):
        with ServerThread(store=None) as running:
            code, body = refused(f"{running.url}/figures/fig09.csv")
        assert code == 404
        assert "no artifact store" in json.loads(body)["error"]
