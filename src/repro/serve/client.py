"""Blocking client for the evaluation daemon (stdlib ``http.client``).

The client side of :mod:`repro.serve.http`: used by ``repro submit``, the
tests and the CI smoke test.  It is synchronous on purpose — callers are
shells and thread pools, not event loops.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator
from urllib.parse import urlsplit


class ServeError(RuntimeError):
    """The daemon was unreachable or answered with a non-200 status."""


class ServeClient:
    """One daemon endpoint, e.g. ``ServeClient("http://127.0.0.1:8731")``.

    Args:
        url: the daemon's base URL (scheme + host + port).
        timeout_s: socket timeout per request; evaluations of full-scale
            scenarios can take minutes, so the default is generous.
    """

    def __init__(self, url: str, *, timeout_s: float = 600.0) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServeError(f"expected an http://host:port URL, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            return connection, connection.getresponse()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServeError(f"cannot reach daemon at {self.host}:{self.port}: {error}")

    def _json_request(self, method: str, path: str, payload: Any = None) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection, response = self._request(method, path, body)
        try:
            text = response.read().decode("utf-8")
        finally:
            connection.close()
        if response.status != 200:
            raise ServeError(f"{method} {path} -> {response.status}: {text.strip()}")
        return json.loads(text)

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        """``GET /healthz`` — raises :class:`ServeError` when down."""
        return self._json_request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /stats`` — the service counters."""
        return self._json_request("GET", "/stats")

    def evaluate(self, payload: dict) -> dict:
        """``POST /evaluate`` one scenario payload; returns the envelope."""
        return self._json_request("POST", "/evaluate", payload)

    def evaluate_batch(self, payloads: list[dict]) -> Iterator[dict]:
        """``POST /evaluate-batch``; yields envelopes in completion order.

        Each envelope carries the ``index`` of its scenario in ``payloads``
        (completion order is not submission order).
        """
        body = json.dumps(payloads).encode("utf-8")
        connection, response = self._request("POST", "/evaluate-batch", body)
        try:
            if response.status != 200:
                text = response.read().decode("utf-8")
                raise ServeError(
                    f"POST /evaluate-batch -> {response.status}: {text.strip()}"
                )
            # http.client undoes the chunked encoding; envelopes are lines.
            buffer = b""
            while True:
                chunk = response.read(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
            if buffer.strip():
                yield json.loads(buffer)
        finally:
            connection.close()
