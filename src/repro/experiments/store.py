"""JSON artifact store for experiment results.

Every experiment run can be persisted as one JSON document per experiment
plus a ``manifest.json`` describing the whole sweep (experiment id, scale,
wall time, check outcomes, git SHA).  The store doubles as a
content-addressed cache keyed on ``(experiment_id, scale)``: re-running an
unchanged experiment at the same scale is a cache hit and the stored result
is returned without re-simulating.

*Where* the documents live is delegated to a
:class:`~repro.experiments.backends.StoreBackend`.  The default backend is
the historical flat directory — byte-identical to the pre-backend layout::

    artifacts/
        manifest.json        # sweep-level metadata + per-experiment summary
        fig07.json           # one envelope per experiment (see ARTIFACT_SCHEMA)
        fig08.json
        ...
        tuning-points/       # per-candidate tuning cache
        scenario-results/    # per-scenario-hash cache (the serving layer)

— while ``sqlite:FILE.db`` backs the same store API with concurrent-safe
storage so the runner, the tuner, and the evaluation daemon can all share
one warm cache (see :meth:`ArtifactStore.from_spec`).

Artifacts are plain JSON so downstream tooling (CI uploads, notebooks,
plotting scripts) can consume them without importing this package.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from repro.experiments.backends import DirectoryBackend, StoreBackend, open_backend
from repro.experiments.results import ExperimentResult

#: Version stamp embedded in every artifact and manifest so future readers
#: can detect incompatible layouts.
ARTIFACT_SCHEMA = 1

#: Name of the sweep-level manifest file inside an artifact directory.
MANIFEST_NAME = "manifest.json"

#: Suffix (before ``.json``) marking a tuning-trace artifact.
TUNING_TRACE_STEM = ".tuning"

#: Subdirectory holding the per-candidate tuning point cache.
TUNING_POINT_DIR = "tuning-points"

#: Subdirectory holding the per-scenario-hash result cache (serving layer).
SCENARIO_RESULT_DIR = "scenario-results"


# ---------------------------------------------------------------------------
# Cache keys and git metadata
# ---------------------------------------------------------------------------


def _json_safe(value):
    """A JSON-serialisable stand-in for an override value.

    Override values are usually JSON scalars, but the library API also
    accepts spec dataclasses (and tuples of them) wholesale; fall back to
    their field dicts — or ``repr`` — so cache keys and envelopes never
    crash after the experiment has already run.
    """
    if hasattr(value, "__dataclass_fields__"):
        from dataclasses import asdict

        return asdict(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def canonical_overrides(overrides: Mapping | None) -> dict | None:
    """Overrides as a canonical, JSON-serialisable dict (``None`` if empty)."""
    if not overrides:
        return None
    return {str(key): _json_safe(overrides[key]) for key in sorted(overrides)}


def cache_key(
    experiment_id: str, scale: float, overrides: Mapping | None = None
) -> str:
    """Content-address of one experiment run.

    The key is a SHA-256 digest of the canonical
    ``(experiment_id, scale, overrides)`` triple; two runs with the same key
    are by construction the same experiment at the same scale with the same
    scenario overrides and may share a cached artifact.  Runs without
    overrides keep their pre-override keys, so existing artifact directories
    stay valid.
    """
    payload: dict = {"experiment_id": experiment_id, "scale": float(scale)}
    if overrides:
        payload["overrides"] = canonical_overrides(overrides)
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_sha(repo_dir: Path | str | None = None) -> str | None:
    """Current git commit SHA, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_dir) if repo_dir is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------


class ScenarioRecord(NamedTuple):
    """One stored scenario evaluation: the scenario-result record's fields.

    ``scenario`` and ``result`` are the ``to_dict`` forms of the scenario
    and its :class:`ExperimentResult`; ``wall_time_s`` is the original
    run's wall time.
    """

    scenario_id: str
    scenario: dict
    wall_time_s: float
    result: dict


class ArtifactStore:
    """JSON store of experiment artifacts over a pluggable backend.

    Args:
        root: artifact directory (created lazily on the first write) when no
            explicit ``backend`` is given; otherwise only used for messages.
        backend: storage backend; defaults to the historical (byte-identical)
            flat-directory layout at ``root``.
    """

    def __init__(self, root: Path | str, backend: StoreBackend | None = None):
        self.root = Path(root)
        self.backend = backend if backend is not None else DirectoryBackend(self.root)

    @classmethod
    def from_spec(cls, spec: str | Path) -> "ArtifactStore":
        """A store from an ``--out`` spec string.

        ``DIR`` (or ``dir:DIR``) opens the default directory layout and
        ``sqlite:FILE.db`` the SQLite backend; a plain path to an existing
        SQLite file reopens with its own backend.  An unknown ``word:``
        prefix raises :class:`ValueError`.
        """
        backend = open_backend(spec)
        root = getattr(backend, "root", None) or getattr(backend, "path")
        return cls(root, backend)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def _artifact_key(experiment_id: str, overrides: Mapping | None = None) -> str:
        """Logical key of the per-experiment artifact.

        Overridden runs live under their own ``<id>@set-<digest>.json`` keys
        so exploratory ``--set`` sweeps never clobber the as-published
        artifact (which ``report --from`` and the plain-run cache rely on).
        """
        if overrides:
            digest = cache_key(experiment_id, 0.0, overrides)[:12]
            return f"{experiment_id}@set-{digest}.json"
        return f"{experiment_id}.json"

    def artifact_path(
        self, experiment_id: str, overrides: Mapping | None = None
    ) -> Path:
        """Where the per-experiment artifact (would) live on this backend."""
        return self.backend.path_hint(self._artifact_key(experiment_id, overrides))

    @property
    def manifest_path(self) -> Path:
        """Where the sweep-level manifest (would) live on this backend."""
        return self.backend.path_hint(MANIFEST_NAME)

    # -- write --------------------------------------------------------------

    def _put(self, key: str, payload: Mapping) -> Path:
        """Write a file people read and diff (an experiment artifact, the
        manifest, a tuning trace) as indented, sorted JSON."""
        return self._write(key, json.dumps(payload, indent=2, sort_keys=True))

    def _write(self, key: str, text: str) -> Path:
        self.backend.put(key, text)
        return self.backend.path_hint(key)

    def save(
        self,
        result: ExperimentResult,
        *,
        scale: float,
        wall_time_s: float,
        update_manifest: bool = True,
        overrides: Mapping | None = None,
    ) -> Path:
        """Persist one experiment result and refresh the manifest.

        Returns the path of the written artifact.
        """
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "experiment_id": result.experiment_id,
            "scale": float(scale),
            "cache_key": cache_key(result.experiment_id, scale, overrides),
            "wall_time_s": wall_time_s,
            "result": result.to_dict(),
        }
        if overrides:
            envelope["overrides"] = canonical_overrides(overrides)
        path = self._put(self._artifact_key(result.experiment_id, overrides), envelope)
        if update_manifest:
            self.refresh_manifest()
        return path

    def refresh_manifest(self) -> None:
        """Rewrite ``manifest.json`` from the artifacts currently stored.

        Unreadable or foreign-schema artifacts are skipped rather than
        poisoning the whole sweep (an interrupted writer must not make
        every later :meth:`save` crash).  The rebuild runs under the
        backend's manifest lock so concurrent writers serialise instead of
        interleaving half-built manifests.
        """
        with self.backend.lock(MANIFEST_NAME):
            experiments = {}
            for experiment_id in self.experiment_ids():
                try:
                    envelope = self.load_envelope(experiment_id)
                except (OSError, ValueError, KeyError):
                    continue
                checks = envelope["result"]["checks"]
                experiments[experiment_id] = {
                    "artifact": self._artifact_key(experiment_id),
                    "scale": envelope["scale"],
                    "cache_key": envelope["cache_key"],
                    "wall_time_s": envelope["wall_time_s"],
                    "checks": checks,
                    "all_checks_pass": all(checks.values()),
                }
            manifest = {
                "schema": ARTIFACT_SCHEMA,
                "git_sha": git_sha(),
                "experiments": experiments,
            }
            self._put(MANIFEST_NAME, manifest)

    # -- read ---------------------------------------------------------------

    def experiment_ids(self) -> list[str]:
        """Ids of the experiments with an as-published artifact, sorted.

        Artifacts of overridden (``--set``) runs are cache-only; tuning
        traces (``*.tuning.json``), tuning points, and scenario results have
        their own listings; all are excluded: the manifest and
        ``report --from`` experiment sections reflect the published
        reproduction.
        """
        return sorted(
            key[: -len(".json")]
            for key in self.backend.keys()
            if "/" not in key
            and key.endswith(".json")
            and key != MANIFEST_NAME
            and "@set-" not in key
            and not key.endswith(f"{TUNING_TRACE_STEM}.json")
        )

    def _get_json(self, key: str) -> dict | None:
        text = self.backend.get(key)
        if text is None:
            return None
        return json.loads(text)

    def load_envelope(self, experiment_id: str, overrides: Mapping | None = None) -> dict:
        """The full artifact envelope (schema, scale, wall time, result...)."""
        key = self._artifact_key(experiment_id, overrides)
        text = self.backend.get(key)
        if text is None:
            raise FileNotFoundError(f"no artifact for {experiment_id!r} in {self.root}")
        envelope = json.loads(text)
        if envelope.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact {self.backend.path_hint(key)} has schema "
                f"{envelope.get('schema')!r}, expected {ARTIFACT_SCHEMA}"
            )
        return envelope

    def load(self, experiment_id: str) -> ExperimentResult:
        """The stored :class:`ExperimentResult` for one experiment."""
        return ExperimentResult.from_dict(self.load_envelope(experiment_id)["result"])

    def read_manifest(self) -> dict:
        """The sweep manifest (FileNotFoundError if absent)."""
        manifest = self._get_json(MANIFEST_NAME)
        if manifest is None:
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {self.root}")
        return manifest

    # -- cache --------------------------------------------------------------

    def cached_envelope(
        self, experiment_id: str, scale: float, overrides: Mapping | None = None
    ) -> dict | None:
        """The artifact envelope for ``(experiment_id, scale, overrides)``, or ``None``.

        A single backend read serves cache-validity, result, and wall time;
        unreadable or mismatched artifacts are a miss, never an error.
        """
        try:
            envelope = self.load_envelope(experiment_id, overrides)
        except (OSError, ValueError, KeyError):
            return None
        if envelope.get("cache_key") != cache_key(experiment_id, scale, overrides):
            return None
        return envelope

    def has(
        self, experiment_id: str, scale: float, overrides: Mapping | None = None
    ) -> bool:
        """Whether a cached artifact exists for ``(experiment_id, scale, overrides)``."""
        return self.cached_envelope(experiment_id, scale, overrides) is not None

    def load_cached(
        self, experiment_id: str, scale: float, overrides: Mapping | None = None
    ) -> ExperimentResult | None:
        """The cached result for ``(experiment_id, scale, overrides)``, or ``None``."""
        envelope = self.cached_envelope(experiment_id, scale, overrides)
        return None if envelope is None else ExperimentResult.from_dict(envelope["result"])

    def scales(self) -> list[float]:
        """Distinct scales of the stored artifacts, sorted."""
        values: set[float] = set()
        for experiment_id in self.experiment_ids():
            values.add(float(self.load_envelope(experiment_id)["scale"]))
        return sorted(values)

    def prune(self, keep: Iterable[str]) -> list[str]:
        """Delete artifacts whose experiment id is not in ``keep``.

        Override artifacts (``<id>@set-<digest>.json``) are pruned by their
        base experiment id, so exploratory ``--set`` sweeps do not
        accumulate unremovable files.  Returns the removed artifact stems.
        """
        keep_set = set(keep)
        removed = []
        for key in self.backend.keys():
            if "/" in key or key == MANIFEST_NAME or not key.endswith(".json"):
                continue
            stem = key[: -len(".json")]
            base_id = stem.split("@set-", 1)[0]
            if base_id not in keep_set:
                self.backend.delete(key)
                removed.append(stem)
        if removed:
            self.refresh_manifest()
        return sorted(removed)

    # -- tuning traces and the tuning point cache ---------------------------

    @staticmethod
    def _trace_stem(target: str) -> str:
        """File-system-safe stem for a tuning target's trace artifact.

        Registry names may contain ``/`` (``interference_theta_ost/shared``);
        the separator is flattened so the trace stays one document at the
        store's top level, next to the experiment artifacts it annotates.
        """
        return target.replace("/", "--")

    @classmethod
    def _trace_key(cls, target: str) -> str:
        return f"{cls._trace_stem(target)}{TUNING_TRACE_STEM}.json"

    def tuning_trace_path(self, target: str) -> Path:
        """Where the tuning-trace artifact for one target (would) live."""
        return self.backend.path_hint(self._trace_key(target))

    def save_tuning_trace(self, target: str, payload: Mapping) -> Path:
        """Persist one tuning trace (plain dict; see ``TuningTrace.to_dict``)."""
        return self._put(self._trace_key(target), dict(payload))

    def tuning_trace_targets(self) -> list[str]:
        """Targets with a stored tuning trace, sorted.

        Targets come from each trace's own ``target`` field (the filename
        mangling is not reversible for names containing ``--``); unreadable
        traces fall back to their key stem rather than disappearing.
        """
        suffix = f"{TUNING_TRACE_STEM}.json"
        targets = []
        for key in self.backend.keys():
            if "/" in key or not key.endswith(suffix):
                continue
            try:
                target = (self._get_json(key) or {}).get("target")
            except ValueError:
                target = None
            targets.append(target or key[: -len(suffix)])
        return sorted(targets)

    def load_tuning_trace(self, target: str) -> dict:
        """The stored tuning-trace payload for one target."""
        payload = self._get_json(self._trace_key(target))
        if payload is None:
            raise FileNotFoundError(f"no tuning trace for {target!r} in {self.root}")
        return payload

    @staticmethod
    def _tuning_point_key(digest: str) -> str:
        return f"{TUNING_POINT_DIR}/{digest}.json"

    def save_tuning_point(self, digest: str, payload: Mapping) -> Path:
        """Persist one candidate evaluation keyed by ``(scenario, objective)``.

        The digest comes from :func:`repro.autotune.tuner.point_digest`, so
        any later tune — of the same space or not — that lands on the same
        scenario/objective pair is served from disk instead of re-simulated.
        """
        return self._put_record(self._tuning_point_key(digest), {"digest": digest, **payload})

    def load_tuning_point(self, digest: str) -> dict | None:
        """The cached evaluation for a digest, or ``None`` (a miss, never an error)."""
        return self._get_record(self._tuning_point_key(digest))

    # -- scenario-result cache (the serving layer) --------------------------

    @staticmethod
    def _scenario_result_key(scenario_hash: str) -> str:
        return f"{SCENARIO_RESULT_DIR}/{scenario_hash}.json"

    def save_scenario_result(
        self, scenario_hash: str, scenario: Mapping, result: Mapping, wall_time_s: float
    ) -> Path:
        """Persist one evaluated scenario keyed by its content hash.

        ``scenario`` is the :meth:`~repro.scenario.spec.Scenario.to_dict`
        form that ``scenario_hash`` was computed from, and ``result`` the
        :meth:`~repro.experiments.results.ExperimentResult.to_dict` form.
        This is the cache behind :func:`repro.core.api.evaluate` and the
        evaluation daemon: any client that later submits a scenario with the
        same canonical JSON is served the stored result without
        re-simulating.
        """
        record = ScenarioRecord(scenario["id"], scenario, wall_time_s, result)
        return self._put_record(
            self._scenario_result_key(scenario_hash),
            {"scenario_hash": scenario_hash, **record._asdict()},
        )

    def load_scenario_result(self, scenario_hash: str) -> ScenarioRecord | None:
        """The cached evaluation for a scenario hash, or ``None`` (a miss)."""
        record = self._get_record(self._scenario_result_key(scenario_hash))
        if record is None or "result" not in record:
            return None
        return ScenarioRecord(
            record.get("scenario_id"),
            record.get("scenario"),
            record.get("wall_time_s", 0.0),
            record["result"],
        )

    # -- schema-stamped keyed records -----------------------------------------

    def _put_record(self, key: str, fields: Mapping) -> Path:
        """Write one cache record, stamped with :data:`ARTIFACT_SCHEMA`, as
        sorted compact JSON: only the store reads records, and ``json``
        serialises with its C encoder only without an indent.  Records
        written indented still load."""
        record = {"schema": ARTIFACT_SCHEMA, **fields}
        return self._write(key, json.dumps(record, sort_keys=True, separators=(",", ":")))

    def _get_record(self, key: str) -> dict | None:
        """One cache record, or ``None`` when it is missing, unreadable or of
        another schema: a miss, never an error."""
        try:
            record = self._get_json(key)
        except ValueError:
            return None
        if record is None or record.get("schema") != ARTIFACT_SCHEMA:
            return None
        return record
