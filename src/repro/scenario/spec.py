"""The declarative scenario tree.

A :class:`Scenario` is a complete, serialisable description of one
experiment cell: which machine, which workload, which I/O strategy, how the
aggregators are placed, what the storage looks like, and — optionally — the
co-running jobs of a multi-job (interference) scenario.  Scenarios are plain
frozen dataclasses of primitives, so

* they validate eagerly (a bad field fails at construction, not mid-run);
* ``to_dict``/``from_dict`` round-trip losslessly through JSON
  (``from_dict(to_dict(s)) == s``);
* any field can be swept or overridden by its dotted path
  (``"workload.bytes_per_rank"``, ``"multijob.jobs.0.storage.ost_start"``)
  via :func:`apply_overrides` — the substrate of both
  :class:`~repro.scenario.sweep.Sweep` and the CLI's ``--set`` flag.

Resolution into concrete machine/workload/performance-model objects is the
job of :class:`~repro.scenario.simulation.Simulation`; this module is pure
data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Any, Mapping

from repro.core.config import AGGREGATION_TIERS, PLACEMENT_STRATEGIES
from repro.utils.units import MIB
from repro.utils.validation import (
    did_you_mean_hint,
    require,
    require_non_negative,
    require_positive,
)

#: Machine kinds understood by the simulation facade.
MACHINE_KINDS = ("mira", "theta", "generic")

#: Workload kinds understood by the simulation facade.
WORKLOAD_KINDS = ("ior", "hacc")

#: I/O strategy kinds.  The two ``mpiio-*`` presets resolve to the paper's
#: per-platform baseline/user-optimized hint bundles (Section V-B); plain
#: ``"mpiio"`` builds hints from the spec fields and the storage spec.
IO_KINDS = ("tapioca", "mpiio", "mpiio-baseline", "mpiio-tuned")

#: Storage kinds.  ``"machine-default"`` uses the machine's own file system
#: untouched; ``"lustre"`` restripes the output file; ``"gpfs"`` scopes a
#: GPFS model to the allocation's Psets; ``"burst-buffer"`` stages through a
#: node-local SSD tier.
STORAGE_KINDS = ("machine-default", "lustre", "gpfs", "burst-buffer")

#: Allocation policies accepted by the multi-job node allocator.
ALLOCATION_POLICIES = ("contiguous", "scattered", "topology-aware")


class ScenarioError(ValueError):
    """A scenario description is invalid (bad field, unknown key, bad path)."""


def _unknown_key_error(cls: type, key: str, known: tuple[str, ...]) -> ScenarioError:
    hint = did_you_mean_hint(key, known)
    return ScenarioError(
        f"{cls.__name__} has no field {key!r} (known: {', '.join(known)}){hint}"
    )


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The field names of a spec class, in declaration order (built once)."""
    return tuple(f.name for f in fields(cls))


def _spec_from_dict(cls: type, payload: Mapping[str, Any]):
    """Build a spec dataclass from a plain dict, rejecting unknown keys.

    Fields that are themselves specs (or tuples of specs) are converted via
    :data:`_NESTED_CONVERTERS`, shared with the dotted-path override logic.
    """
    if not isinstance(payload, Mapping):
        raise ScenarioError(f"{cls.__name__} payload must be a mapping, got {payload!r}")
    nested = _NESTED_CONVERTERS.get(cls, {})
    known = _field_names(cls)
    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        if key not in known:
            raise _unknown_key_error(cls, key, known)
        kwargs[key] = nested[key](value) if key in nested and value is not None else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"invalid {cls.__name__}: {error}") from error


def _spec_to_dict(value: Any) -> Any:
    """Recursively convert a spec tree to JSON-serialisable plain data."""
    if hasattr(value, "__dataclass_fields__"):
        return {name: _spec_to_dict(getattr(value, name)) for name in _field_names(type(value))}
    if isinstance(value, (list, tuple)):
        return [_spec_to_dict(item) for item in value]
    return value


def _require_spec(owner: str, name: str, value: Any, cls: type) -> None:
    """Validate that a nested spec field holds an instance of ``cls``.

    Catches ``null``/mis-typed nested payloads at construction (the JSON
    decoder and the override path both skip conversion for ``None``), so the
    failure is a clear :class:`ScenarioError` instead of a downstream
    ``AttributeError`` mid-resolution.
    """
    if not isinstance(value, cls):
        raise ScenarioError(
            f"{owner}.{name} must be a {cls.__name__}, got {value!r}"
        )


def _coerce_int(spec: Any, name: str) -> None:
    """Normalise an integer field, accepting integral floats (JSON ``6.4e7``).

    Fractional values are rejected: half a node or a fractional byte count
    would silently skew the model (and be cached under its own key).
    """
    value = getattr(spec, name)
    if value is None:
        return
    if isinstance(value, float) and value.is_integer():
        object.__setattr__(spec, name, int(value))
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(
            f"{type(spec).__name__}.{name} must be an integer, got {value!r}"
        )


# --------------------------------------------------------------------------- #
# Leaf specs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MachineSpec:
    """Which platform the scenario runs on.

    Attributes:
        kind: one of :data:`MACHINE_KINDS`.
        num_nodes: allocation size in nodes.
        ranks_per_node: MPI ranks per node (``None`` = the machine's usual
            value: 16 on Mira/Theta, 8 on the generic cluster).
        pset_size: nodes per Pset (Mira only; 128 on the real machine).
        nodes_per_leaf: nodes per leaf switch (generic cluster only).
        num_gateways: I/O gateway nodes (generic cluster only).
        hide_gateways: pretend the gateways are unknown, like Theta's LNET
            routers — the placement objective then drops its C2 term
            (generic cluster only; used by the I/O-locality ablation).
    """

    kind: str = "theta"
    num_nodes: int = 512
    ranks_per_node: int | None = None
    pset_size: int | None = None
    nodes_per_leaf: int = 16
    num_gateways: int = 4
    hide_gateways: bool = False

    def __post_init__(self) -> None:
        require(
            self.kind in MACHINE_KINDS,
            f"machine kind must be one of {MACHINE_KINDS}, got {self.kind!r}",
        )
        for name in (
            "num_nodes",
            "ranks_per_node",
            "pset_size",
            "nodes_per_leaf",
            "num_gateways",
        ):
            _coerce_int(self, name)
        require_positive(self.num_nodes, "num_nodes")
        if self.ranks_per_node is not None:
            require_positive(self.ranks_per_node, "ranks_per_node")
        if self.pset_size is not None:
            require_positive(self.pset_size, "pset_size")
        require_positive(self.nodes_per_leaf, "nodes_per_leaf")
        require_positive(self.num_gateways, "num_gateways")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MachineSpec":
        return _spec_from_dict(cls, payload)


@dataclass(frozen=True)
class WorkloadSpec:
    """What the application writes or reads.

    Attributes:
        kind: ``"ior"`` (contiguous per-rank blocks) or ``"hacc"`` (the
            HACC-IO particle checkpoint).
        bytes_per_rank: IOR transfer size per rank per iteration.
        iterations: IOR iterations (collective calls).
        particles_per_rank: HACC particles per rank (38 bytes each).
        layout: HACC data layout, ``"aos"`` or ``"soa"``.
        access: ``"write"`` or ``"read"``.
    """

    kind: str = "ior"
    bytes_per_rank: int = 1 * MIB
    iterations: int = 1
    particles_per_rank: int = 25_000
    layout: str = "aos"
    access: str = "write"

    def __post_init__(self) -> None:
        require(
            self.kind in WORKLOAD_KINDS,
            f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}",
        )
        for name in ("bytes_per_rank", "iterations", "particles_per_rank"):
            _coerce_int(self, name)
        require_positive(self.bytes_per_rank, "bytes_per_rank")
        require_positive(self.iterations, "iterations")
        require_positive(self.particles_per_rank, "particles_per_rank")
        require(
            self.layout in ("aos", "soa"),
            f"layout must be 'aos' or 'soa', got {self.layout!r}",
        )
        require(
            self.access in ("read", "write"),
            f"access must be 'read' or 'write', got {self.access!r}",
        )

    def resolve(self, num_ranks: int):
        """The concrete :class:`~repro.workloads.base.Workload` for ``num_ranks``."""
        from repro.workloads.hacc import HACCIOWorkload
        from repro.workloads.ior import IORWorkload

        if self.kind == "hacc":
            return HACCIOWorkload(
                num_ranks,
                self.particles_per_rank,
                layout=self.layout,
                access=self.access,
            )
        return IORWorkload(
            num_ranks,
            self.bytes_per_rank,
            iterations=self.iterations,
            access=self.access,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        return _spec_from_dict(cls, payload)


@dataclass(frozen=True)
class IOStrategySpec:
    """Which I/O path moves the bytes, and its tunables.

    Attributes:
        kind: one of :data:`IO_KINDS`.
        num_aggregators: explicit aggregator count (TAPIOCA) or ``cb_nodes``
            (MPI I/O).  ``None`` defers to the relative fields below, then to
            the platform default.
        aggregators_per_pset: aggregators per Mira Pset (scales with the
            allocation, so scenarios stay valid at any node count).
        aggregators_per_ost: aggregators per Lustre OST of the file's stripe
            (the Cray MPI convention).
        buffer_size: aggregation/collective buffer size in bytes.
        pipeline_depth: TAPIOCA buffers per aggregator (2 = double-buffer
            overlap, 1 = no overlap).
        shared_locks: whether collective lock sharing is enabled.
        collective_buffering: whether two-phase collective I/O is enabled at
            all (MPI I/O only).
        aggregation_tier: memory tier hosting TAPIOCA's buffers.
    """

    kind: str = "tapioca"
    num_aggregators: int | None = None
    aggregators_per_pset: int | None = None
    aggregators_per_ost: int | None = None
    buffer_size: int = 16 * MIB
    pipeline_depth: int = 2
    shared_locks: bool = True
    collective_buffering: bool = True
    aggregation_tier: str = "dram"

    def __post_init__(self) -> None:
        require(
            self.kind in IO_KINDS,
            f"io kind must be one of {IO_KINDS}, got {self.kind!r}",
        )
        for name in (
            "num_aggregators",
            "aggregators_per_pset",
            "aggregators_per_ost",
            "buffer_size",
            "pipeline_depth",
        ):
            _coerce_int(self, name)
        for name in ("num_aggregators", "aggregators_per_pset", "aggregators_per_ost"):
            value = getattr(self, name)
            if value is not None:
                require_positive(value, name)
        require_positive(self.buffer_size, "buffer_size")
        require(
            self.pipeline_depth in (1, 2),
            f"pipeline_depth must be 1 or 2, got {self.pipeline_depth}",
        )
        require(
            self.aggregation_tier in AGGREGATION_TIERS,
            f"unknown aggregation tier {self.aggregation_tier!r}; "
            f"expected one of {AGGREGATION_TIERS}",
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "IOStrategySpec":
        return _spec_from_dict(cls, payload)


@dataclass(frozen=True)
class PlacementSpec:
    """How TAPIOCA partitions ranks and elects aggregators.

    Attributes:
        strategy: placement objective (see
            :data:`repro.core.config.PLACEMENT_STRATEGIES`).
        partition_by: ``"contiguous"`` rank blocks or one partition group
            per machine I/O partition (``"pset"``).
        seed: RNG seed for the ``"random"`` strategy.
        certify: opportunistically certify the greedy election's optimality
            gap (:mod:`repro.placement_opt`) and attach it to the result.
            Default off so existing artifacts stay byte-identical.
    """

    strategy: str = "topology-aware"
    partition_by: str = "contiguous"
    seed: int | None = None
    certify: bool = False

    def __post_init__(self) -> None:
        require(
            self.strategy in PLACEMENT_STRATEGIES,
            f"unknown placement strategy {self.strategy!r}; "
            f"expected one of {PLACEMENT_STRATEGIES}",
        )
        require(
            self.partition_by in ("contiguous", "pset"),
            f"partition_by must be 'contiguous' or 'pset', got {self.partition_by!r}",
        )
        require(
            isinstance(self.certify, bool),
            f"certify must be a boolean, got {self.certify!r}",
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlacementSpec":
        return _spec_from_dict(cls, payload)


@dataclass(frozen=True)
class StorageSpec:
    """Where the output file lives.

    Attributes:
        kind: one of :data:`STORAGE_KINDS`.
        stripe_count: Lustre stripe count (``kind="lustre"``).
        stripe_size: Lustre stripe size in bytes (``kind="lustre"``).
        ost_start: first OST of the file's stripe set (``lfs setstripe -i``);
            multi-job scenarios use it to land files on shared or disjoint
            OST sets.
        subfiling: one file per Pset instead of a single shared file
            (``kind="gpfs"``).
        name: resource name of the staging tier (``kind="burst-buffer"``);
            jobs whose specs share a name share the drain.
        num_devices: SSD devices of the staging tier.
        device_capacity: per-device capacity in bytes.
        drain_gbps: aggregate drain bandwidth to the backing file system.
    """

    kind: str = "machine-default"
    stripe_count: int = 48
    stripe_size: int = 8 * MIB
    ost_start: int = 0
    subfiling: bool = False
    name: str = "burst-buffer"
    num_devices: int = 16
    device_capacity: int | None = None
    drain_gbps: float | None = None

    def __post_init__(self) -> None:
        require(
            self.kind in STORAGE_KINDS,
            f"storage kind must be one of {STORAGE_KINDS}, got {self.kind!r}",
        )
        for name in (
            "stripe_count",
            "stripe_size",
            "ost_start",
            "num_devices",
            "device_capacity",
        ):
            _coerce_int(self, name)
        require_positive(self.stripe_count, "stripe_count")
        require_positive(self.stripe_size, "stripe_size")
        require_non_negative(self.ost_start, "ost_start")
        require_positive(self.num_devices, "num_devices")
        if self.device_capacity is not None:
            require_positive(self.device_capacity, "device_capacity")
        if self.drain_gbps is not None:
            require_positive(self.drain_gbps, "drain_gbps")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StorageSpec":
        return _spec_from_dict(cls, payload)


# --------------------------------------------------------------------------- #
# Multi-job specs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JobScenarioSpec:
    """One job of a multi-job scenario, fully declarative.

    The shared machine comes from the enclosing :class:`Scenario`; each job
    declares only its own size, workload, I/O strategy and file placement.
    """

    name: str
    num_nodes: int
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    io: IOStrategySpec = field(default_factory=IOStrategySpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    ranks_per_node: int = 16
    arrival_s: float = 0.0
    compute_s: float = 0.0

    def __post_init__(self) -> None:
        require(bool(self.name), "job name must be non-empty")
        _coerce_int(self, "num_nodes")
        _coerce_int(self, "ranks_per_node")
        require_positive(self.num_nodes, "num_nodes")
        require_positive(self.ranks_per_node, "ranks_per_node")
        require_non_negative(self.arrival_s, "arrival_s")
        require_non_negative(self.compute_s, "compute_s")
        _require_spec("job", "workload", self.workload, WorkloadSpec)
        _require_spec("job", "io", self.io, IOStrategySpec)
        _require_spec("job", "placement", self.placement, PlacementSpec)
        _require_spec("job", "storage", self.storage, StorageSpec)

    @property
    def num_ranks(self) -> int:
        """Total MPI ranks of the job."""
        return self.num_nodes * self.ranks_per_node

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobScenarioSpec":
        return _spec_from_dict(cls, payload)


@dataclass(frozen=True)
class MultiJobSpec:
    """Several concurrent jobs sharing the scenario's machine.

    Attributes:
        jobs: the co-running jobs (names must be unique).
        allocation_policy: node-allocator policy (see
            :data:`ALLOCATION_POLICIES`).
    """

    jobs: tuple[JobScenarioSpec, ...]
    allocation_policy: str = "contiguous"

    def __post_init__(self) -> None:
        # JSON-decoded payloads arrive as lists; normalise to a tuple so
        # round-tripped scenarios compare equal to hand-built ones.
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        require(len(self.jobs) > 0, "a multi-job scenario needs at least one job")
        for index, job in enumerate(self.jobs):
            _require_spec("multijob", f"jobs.{index}", job, JobScenarioSpec)
        names = [job.name for job in self.jobs]
        require(len(set(names)) == len(names), "job names must be unique")
        require(
            self.allocation_policy in ALLOCATION_POLICIES,
            f"allocation_policy must be one of {ALLOCATION_POLICIES}, "
            f"got {self.allocation_policy!r}",
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MultiJobSpec":
        return _spec_from_dict(cls, payload)


# --------------------------------------------------------------------------- #
# The scenario itself
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """One fully-described experiment cell.

    A *single-job* scenario (``multijob is None``) resolves to one
    TAPIOCA-or-MPI-I/O performance estimate; a *multi-job* scenario resolves
    to a :class:`~repro.multijob.runtime.MultiJobRuntime` run whose per-job
    slowdowns become the result series.  In the multi-job case the top-level
    ``workload``/``io``/``placement``/``storage`` specs are unused — each job
    carries its own.
    """

    id: str
    machine: MachineSpec = field(default_factory=MachineSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    io: IOStrategySpec = field(default_factory=IOStrategySpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    multijob: MultiJobSpec | None = None
    title: str = ""

    def __post_init__(self) -> None:
        require(bool(self.id), "scenario id must be non-empty")
        _require_spec("scenario", "machine", self.machine, MachineSpec)
        _require_spec("scenario", "workload", self.workload, WorkloadSpec)
        _require_spec("scenario", "io", self.io, IOStrategySpec)
        _require_spec("scenario", "placement", self.placement, PlacementSpec)
        _require_spec("scenario", "storage", self.storage, StorageSpec)
        if self.multijob is not None:
            _require_spec("scenario", "multijob", self.multijob, MultiJobSpec)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable; inverse of :meth:`from_dict`)."""
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (rejects unknown keys)."""
        return _spec_from_dict(cls, payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def content_hash(self) -> str:
        """SHA-256 digest of the canonical JSON form, computed once per
        scenario (a frozen description hashes the same every time).

        Two scenarios with the same hash are by construction the same
        description; the evaluation daemon dedupes in-flight requests and
        the store caches evaluated results by this address.
        """
        digest = self.__dict__.get("_content_hash")
        return digest if digest is not None else self.hashed_dict()[1]

    def hashed_dict(self) -> tuple[dict, str]:
        """:meth:`to_dict` and its :meth:`content_hash`, from one
        serialisation, for callers that also store or ship the dict."""
        payload = self.to_dict()
        digest = payload_hash(payload)
        object.__setattr__(self, "_content_hash", digest)
        return payload, digest

    # -- overrides ----------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any] | None) -> "Scenario":
        """A copy with dotted-path overrides applied (see :func:`apply_overrides`)."""
        return apply_overrides(self, overrides)


# --------------------------------------------------------------------------- #
# Nested-field converters (shared by from_dict and dotted-path overrides)
# --------------------------------------------------------------------------- #


def payload_hash(payload: Mapping[str, Any]) -> str:
    """:meth:`Scenario.content_hash` of an already built :meth:`Scenario.to_dict`,
    for callers that also store or ship that dict."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _spec_converter(cls: type):
    """Convert a payload to ``cls``, passing through existing instances."""

    def convert(value: Any):
        return value if isinstance(value, cls) else _spec_from_dict(cls, value)

    return convert


def _jobs_converter(entries: Any) -> tuple:
    if not isinstance(entries, (list, tuple)):
        raise ScenarioError(f"multijob jobs must be a list, got {entries!r}")
    return tuple(_spec_converter(JobScenarioSpec)(entry) for entry in entries)


#: Per-class converters for fields holding specs (or tuples of specs), so a
#: wholesale value — a JSON mapping from ``--set workload={...}`` or a tuple
#: of job specs from a sweep axis — is always validated into the field type.
_NESTED_CONVERTERS: dict[type, dict[str, Any]] = {
    Scenario: {
        "machine": _spec_converter(MachineSpec),
        "workload": _spec_converter(WorkloadSpec),
        "io": _spec_converter(IOStrategySpec),
        "placement": _spec_converter(PlacementSpec),
        "storage": _spec_converter(StorageSpec),
        "multijob": _spec_converter(MultiJobSpec),
    },
    JobScenarioSpec: {
        "workload": _spec_converter(WorkloadSpec),
        "io": _spec_converter(IOStrategySpec),
        "placement": _spec_converter(PlacementSpec),
        "storage": _spec_converter(StorageSpec),
    },
    MultiJobSpec: {"jobs": _jobs_converter},
}


# --------------------------------------------------------------------------- #
# Dotted-path overrides
# --------------------------------------------------------------------------- #


def _set_path(target: Any, path: list[str], value: Any, full_key: str) -> Any:
    """Return a copy of ``target`` with ``path`` replaced by ``value``."""
    head, rest = path[0], path[1:]
    if isinstance(target, tuple):
        try:
            index = int(head)
        except ValueError:
            raise ScenarioError(
                f"{full_key!r}: expected a list index, got {head!r}"
            ) from None
        if not 0 <= index < len(target):
            raise ScenarioError(
                f"{full_key!r}: index {index} out of range (0..{len(target) - 1})"
            )
        items = list(target)
        if rest:
            items[index] = _set_path(items[index], rest, value, full_key)
        elif isinstance(value, Mapping) and hasattr(
            items[index], "__dataclass_fields__"
        ):
            # Wholesale replacement of a spec element: validate the payload
            # into the element's own type (e.g. multijob.jobs.0={...}).
            try:
                items[index] = _spec_from_dict(type(items[index]), value)
            except ScenarioError as error:
                raise ScenarioError(f"{full_key!r}: {error}") from error
        else:
            items[index] = value
        return tuple(items)
    if not hasattr(target, "__dataclass_fields__"):
        raise ScenarioError(f"{full_key!r}: {head!r} is not a scenario field")
    known = _field_names(type(target))
    if head not in known:
        raise _unknown_key_error(type(target), head, known)
    if not rest:
        converter = _NESTED_CONVERTERS.get(type(target), {}).get(head)
        if converter is not None and value is not None:
            try:
                value = converter(value)
            except ScenarioError as error:
                raise ScenarioError(f"{full_key!r}: {error}") from error
        new_value = value
    else:
        current = getattr(target, head)
        if current is None:
            raise ScenarioError(
                f"{full_key!r}: {head!r} is unset on this scenario; "
                f"set it wholesale first"
            )
        new_value = _set_path(current, rest, value, full_key)
    try:
        return replace(target, **{head: new_value})
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"invalid value for {full_key!r}: {error}") from error


def apply_overrides(
    scenario: Scenario, overrides: Mapping[str, Any] | None
) -> Scenario:
    """Apply dotted-path overrides to a scenario, returning a new scenario.

    Keys are dotted field paths (``"io.buffer_size"``,
    ``"multijob.jobs.1.storage.ost_start"``); integer components index into
    tuples.  Unknown fields and invalid values raise :class:`ScenarioError`
    (with a did-you-mean hint), so a typo in ``--set`` fails loudly instead
    of silently running the unmodified scenario.
    """
    if not overrides:
        return scenario
    for key, value in overrides.items():
        parts = [part for part in str(key).split(".") if part]
        if not parts:
            raise ScenarioError(f"empty override key {key!r}")
        scenario = _set_path(scenario, parts, value, str(key))
    return scenario


def parse_override(text: str) -> tuple[str, Any]:
    """Parse one ``--set dotted.key=value`` argument.

    The value is decoded as JSON when possible (``8388608``, ``true``,
    ``null``, ``[1,2]``) and kept as a literal string otherwise (``soa``).
    """
    key, separator, raw = text.partition("=")
    if not separator or not key.strip():
        raise ScenarioError(
            f"override must look like dotted.key=value, got {text!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def parse_overrides(pairs: list[str] | None) -> dict[str, Any]:
    """Parse a list of ``key=value`` strings into an override mapping."""
    overrides: dict[str, Any] = {}
    for pair in pairs or []:
        key, value = parse_override(pair)
        overrides[key] = value
    return overrides
