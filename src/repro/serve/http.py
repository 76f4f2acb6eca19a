"""Minimal stdlib HTTP front end for the evaluation service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no web
framework is available in-container, and the protocol surface is four
routes:

* ``GET /healthz`` — liveness probe, ``{"status": "ok"}``.
* ``GET /stats`` — the service's counters (requests, cache hits, dedups...)
  plus inflight/queue-depth gauges and p50/p95 request latency.
* ``GET /metrics`` — the same data in Prometheus text exposition format
  (plus every process-level metric when tracing is enabled).
* ``POST /evaluate`` — body is one Scenario JSON payload; the response is
  the evaluation envelope.
* ``POST /evaluate-batch`` — body is a JSON array of Scenario payloads; the
  response streams one NDJSON envelope per scenario **as each completes**
  (chunked transfer encoding), each tagged with its input ``index``.
* ``GET /figures/<id>.csv`` — one paper figure as tidy CSV (reproduced
  points + digitised paper values + deviations), rendered from the daemon's
  artifact store by :mod:`repro.reporting`; 404 without a store or artifact.

Connections are one-request (``Connection: close``): clients here submit
simulations that run for seconds, so connection reuse buys nothing and
keep-alive bookkeeping would be the largest piece of the file.

:class:`ServerThread` runs the whole daemon on a background thread for
tests.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any

from repro.experiments.store import ArtifactStore
from repro.serve.service import EvaluationService

#: Refuse request bodies above this size: the largest legitimate scenario
#: batches are well under a megabyte; anything bigger is a client bug.
MAX_BODY_BYTES = 32 * 1024 * 1024


class _BadRequest(Exception):
    """Malformed HTTP or JSON; mapped to a 400 response."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError) as error:
        raise _BadRequest(str(error))
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {request_line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest(
            f"malformed Content-Length: {headers['content-length']!r}"
        )
    if length < 0:
        raise _BadRequest(f"malformed Content-Length: {length}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"request body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response_bytes(status: int, payload: Any) -> bytes:
    """A complete JSON response with Content-Length."""
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed"}
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


def _text_response_bytes(
    status: int, body_text: str, content_type: str = "text/plain; charset=utf-8"
) -> bytes:
    """A complete plain-text response (the ``/metrics`` exposition)."""
    body = body_text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} OK\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


class HttpFrontend:
    """The HTTP server wrapping one :class:`EvaluationService`.

    Args:
        service: the shared evaluation core.
        host: bind address (default loopback; the daemon trusts its callers).
        port: bind port; ``0`` picks a free one (see :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self, service: EvaluationService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting connections (resolves :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_BODY_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
            except (_BadRequest, asyncio.IncompleteReadError) as error:
                writer.write(_response_bytes(400, {"status": "error", "error": str(error)}))
                return
            if path == "/healthz" and method == "GET":
                writer.write(_response_bytes(200, {"status": "ok"}))
            elif path == "/stats" and method == "GET":
                writer.write(_response_bytes(200, self.service.snapshot()))
            elif path == "/metrics" and method == "GET":
                writer.write(
                    _text_response_bytes(
                        200,
                        self.service.metrics_text(),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                )
            elif path == "/evaluate" and method == "POST":
                await self._evaluate_one(writer, body)
            elif path == "/evaluate-batch" and method == "POST":
                await self._evaluate_batch(writer, body)
            elif path.startswith("/figures/") and path.endswith(".csv"):
                if method == "GET":
                    self._figure_csv(writer, path)
                else:
                    writer.write(
                        _response_bytes(
                            405, {"status": "error", "error": f"{method} not allowed"}
                        )
                    )
            elif path in ("/healthz", "/stats", "/metrics", "/evaluate", "/evaluate-batch"):
                writer.write(
                    _response_bytes(405, {"status": "error", "error": f"{method} not allowed"})
                )
            else:
                writer.write(
                    _response_bytes(404, {"status": "error", "error": f"no route {path}"})
                )
            await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to clean up beyond the socket
        finally:
            writer.close()

    def _figure_csv(self, writer: asyncio.StreamWriter, path: str) -> None:
        """``GET /figures/<id>.csv``: one paper figure from the daemon's store.

        Rendering reads the stored experiment envelope and never evaluates,
        so the route is synchronous and cheap; it exists so a dashboard can
        scrape figure CSVs off a long-running daemon without filesystem
        access to the artifact directory.
        """
        from repro.reporting.figures import figure_csv_from_store

        figure_id = path[len("/figures/") : -len(".csv")]
        if self.service.store is None:
            writer.write(
                _response_bytes(
                    404, {"status": "error", "error": "daemon has no artifact store"}
                )
            )
            return
        try:
            text = figure_csv_from_store(self.service.store, figure_id)
        except KeyError:
            writer.write(
                _response_bytes(
                    404, {"status": "error", "error": f"unknown figure {figure_id!r}"}
                )
            )
            return
        except FileNotFoundError:
            writer.write(
                _response_bytes(
                    404,
                    {
                        "status": "error",
                        "error": f"no stored artifact for {figure_id!r}",
                    },
                )
            )
            return
        writer.write(
            _text_response_bytes(200, text, content_type="text/csv; charset=utf-8")
        )

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _BadRequest(f"request body is not valid JSON: {error}")

    async def _evaluate_one(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = self._parse_body(body)
        except _BadRequest as error:
            writer.write(_response_bytes(400, {"status": "error", "error": str(error)}))
            return
        if not isinstance(payload, dict):
            writer.write(
                _response_bytes(400, {"status": "error", "error": "expected one scenario object"})
            )
            return
        envelope = await self.service.evaluate(payload)
        writer.write(_response_bytes(200, envelope))

    async def _evaluate_batch(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        """Stream NDJSON envelopes in completion order, tagged with ``index``."""
        try:
            payloads = self._parse_body(body)
        except _BadRequest as error:
            writer.write(_response_bytes(400, {"status": "error", "error": str(error)}))
            return
        if not isinstance(payloads, list):
            writer.write(
                _response_bytes(400, {"status": "error", "error": "expected a JSON array of scenarios"})
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def tagged(index: int, payload: Any) -> dict:
            if not isinstance(payload, dict):
                envelope = {"status": "error", "error": "scenario must be a JSON object"}
            else:
                envelope = await self.service.evaluate(payload)
            return {"index": index, **envelope}

        tasks = [
            asyncio.ensure_future(tagged(index, payload))
            for index, payload in enumerate(payloads)
        ]
        for finished in asyncio.as_completed(tasks):
            envelope = await finished
            line = (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")
            writer.write(_chunk(line))
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


class ServerThread:
    """A full serve daemon on a background thread (tests, load generators).

    Usage::

        with ServerThread(store=store, jobs=4) as server:
            client = ServeClient(server.url)
            ...

    Args:
        store: artifact store spec or instance for the service (``None`` =
            dedup only, no persistence).
        jobs: worker processes for scenario batches.
        host, port: bind address; port 0 picks a free one.
        batch_window_s: the service's microbatching window.
    """

    def __init__(
        self,
        store: ArtifactStore | str | None = None,
        *,
        jobs: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_s: float = 0.01,
    ) -> None:
        if isinstance(store, str):
            store = ArtifactStore.from_spec(store)
        self.service = EvaluationService(
            store, jobs=jobs, batch_window_s=batch_window_s
        )
        self._frontend = HttpFrontend(self.service, host=host, port=port)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self._frontend.host}:{self._frontend.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(f"serve thread failed to start: {self._startup_error}")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._frontend.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self._frontend.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
