"""Simulation-as-a-service: the asynchronous evaluation daemon.

``repro serve`` turns the toolkit into a long-lived evaluation service:
clients submit :class:`~repro.scenario.spec.Scenario` JSON and receive the
experiment result, without paying interpreter start-up, registry imports, or
worker-pool spin-up per request.  The HTTP front end
(:mod:`repro.serve.http`) wraps one
:class:`~repro.serve.service.EvaluationService`: ``POST /evaluate`` with a
scenario payload, ``POST /evaluate-batch`` streaming NDJSON responses as
evaluations complete, plus ``GET /healthz``, ``GET /stats`` and
``GET /metrics``.  :class:`~repro.serve.client.ServeClient` (and
``repro submit``) is its stdlib client.

The service dedupes concurrent identical scenarios by content hash (two
clients submitting the same description trigger exactly one evaluation),
serves warm hits from the shared :class:`~repro.experiments.store.ArtifactStore`
without re-simulating, and microbatches fresh work into the persistent
worker pool from :mod:`repro.experiments.runner`.
"""

from repro.serve.client import ServeClient
from repro.serve.http import HttpFrontend, ServerThread
from repro.serve.service import EvaluationService

__all__ = [
    "EvaluationService",
    "HttpFrontend",
    "ServeClient",
    "ServerThread",
]
