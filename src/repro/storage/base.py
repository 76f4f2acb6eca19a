"""Abstract file-system performance model.

Two levels of interface are provided, used by the two execution paths of the
reproduction:

* :meth:`FileSystemModel.phase_time` — analytic: estimate the wall time of an
  entire I/O phase described by an :class:`IOPhaseProfile` (total bytes,
  number of concurrent writer streams, per-request size, alignment).  This is
  what the flow-level performance model (``repro.perfmodel``) uses to
  regenerate the paper's figures at 16K–64K rank scale.
* :meth:`FileSystemModel.operation_time` — operational: the cost of one
  read/write call issued by one client, given how many other clients are
  concurrently active.  This is what the discrete-event MPI file layer uses.

Both are expressed in terms of three building blocks every concrete model
implements: an aggregate bandwidth curve versus concurrent streams, a fixed
per-operation overhead, and an alignment / lock penalty.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class IOPhaseProfile:
    """Description of one I/O phase (e.g. all aggregators flushing a round).

    Attributes:
        total_bytes: total volume moved to/from storage in the phase.
        streams: number of concurrent client streams (aggregators or ranks).
        request_size: size in bytes of each individual read/write request.
        access: ``"write"`` or ``"read"``.
        aligned: whether requests are aligned to the file system's natural
            boundary (GPFS block / Lustre stripe).  Unaligned writes pay a
            read-modify-write + lock penalty.
        shared_locks: whether the collective-I/O lock-sharing optimisation is
            enabled (both platforms expose it as a tuning knob; the paper's
            "optimized" baseline uses it).
        distinct_files: number of separate files the phase touches (subfiling
            writes one file per Pset on Mira).
    """

    total_bytes: float
    streams: int
    request_size: float
    access: str = "write"
    aligned: bool = True
    shared_locks: bool = True
    distinct_files: int = 1

    def __post_init__(self) -> None:
        require_non_negative(self.total_bytes, "total_bytes")
        require_positive(self.streams, "streams")
        require_positive(self.request_size, "request_size")
        if self.access not in ("read", "write"):
            raise ValueError(f"access must be 'read' or 'write', got {self.access!r}")
        require_positive(self.distinct_files, "distinct_files")


@dataclass(frozen=True)
class SharedResource:
    """One storage-side resource concurrent jobs contend for.

    The multi-job contention ledger registers these with their saturated
    capacity and partitions that capacity among the jobs whose files touch
    them.

    Attributes:
        key: hashable identifier, e.g. ``("lustre-ost", 12)`` or
            ``("gpfs-backend",)``.  Keys are global to the machine, so two
            jobs whose files land on the same OST produce the same key.
        capacity: saturated bandwidth of the resource in bytes/s.
    """

    key: tuple
    capacity: float

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")


class FileSystemModel(abc.ABC):
    """Abstract parallel file system performance model."""

    #: Human readable name (``"GPFS"``, ``"Lustre"``).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Building blocks implemented by concrete models
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def aggregate_bandwidth(self, streams: int, access: str = "write") -> float:
        """Achievable aggregate bandwidth (bytes/s) with ``streams`` concurrent clients."""

    @abc.abstractmethod
    def operation_overhead(self, access: str = "write") -> float:
        """Fixed per-request overhead in seconds (metadata, RPC round trip)."""

    @abc.abstractmethod
    def alignment_unit(self) -> int:
        """Natural alignment boundary in bytes (GPFS block, Lustre stripe)."""

    @abc.abstractmethod
    def access_penalty(
        self,
        request_size: float,
        *,
        aligned: bool,
        shared_locks: bool,
        streams: int,
        access: str = "write",
    ) -> float:
        """Multiplicative slowdown (>= 1) for a request with these properties."""

    # ------------------------------------------------------------------ #
    # Derived interface
    # ------------------------------------------------------------------ #

    def effective_bandwidth(self, profile: IOPhaseProfile) -> float:
        """Aggregate bandwidth for the phase after penalties (bytes/s)."""
        raw = self.aggregate_bandwidth(profile.streams, profile.access)
        penalty = self.access_penalty(
            profile.request_size,
            aligned=profile.aligned,
            shared_locks=profile.shared_locks,
            streams=profile.streams,
            access=profile.access,
        )
        return raw / penalty

    def phase_time(self, profile: IOPhaseProfile) -> float:
        """Wall time in seconds to complete the I/O phase."""
        if profile.total_bytes <= 0:
            return 0.0
        bandwidth = self.effective_bandwidth(profile)
        requests_per_stream = max(
            1.0, profile.total_bytes / (profile.streams * profile.request_size)
        )
        overhead = requests_per_stream * self.operation_overhead(profile.access)
        return profile.total_bytes / bandwidth + overhead

    def operation_time(
        self,
        nbytes: float,
        *,
        offset: int = 0,
        access: str = "write",
        concurrent_streams: int = 1,
        shared_locks: bool = True,
    ) -> float:
        """Time for a single request from one client.

        The aggregate bandwidth is shared equally among the
        ``concurrent_streams`` active clients; the request additionally pays
        the per-operation overhead and the alignment penalty determined from
        its offset and size.
        """
        require_non_negative(nbytes, "nbytes")
        if nbytes == 0:
            return self.operation_overhead(access)
        streams = max(1, int(concurrent_streams))
        aligned = self.is_aligned(offset, nbytes)
        per_stream = self.aggregate_bandwidth(streams, access) / streams
        penalty = self.access_penalty(
            nbytes,
            aligned=aligned,
            shared_locks=shared_locks,
            streams=streams,
            access=access,
        )
        return self.operation_overhead(access) + nbytes * penalty / per_stream

    def shared_resources(self, access: str = "write") -> list[SharedResource]:
        """Shared resources of this file system (multi-job contention).

        Concrete models enumerate their real sharing surfaces (OSTs and LNET
        routers for Lustre, I/O nodes and the backend for GPFS, the drain
        pipe for a burst buffer).  The default is a single aggregate pipe at
        the saturated bandwidth, which is correct for any model without finer
        structure: two jobs on it simply split the total.
        """
        return [
            SharedResource(
                ("fs", self.name), self.aggregate_bandwidth(1 << 20, access)
            )
        ]

    def is_aligned(self, offset: int, nbytes: float) -> bool:
        """Whether a request starts and ends on the alignment boundary."""
        unit = self.alignment_unit()
        if unit <= 1:
            return True
        return offset % unit == 0 and int(nbytes) % unit == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class LinearSaturationCurve:
    """Bandwidth curve ``peak * streams / (streams + half_saturation)``.

    Concrete file systems use this to express that a single client cannot
    saturate the backend, that a handful of clients approach the peak, and
    that additional clients beyond saturation neither help nor (to first
    order) hurt.

    Attributes:
        peak: asymptotic aggregate bandwidth, bytes/s.
        half_saturation: number of streams at which half of ``peak`` is reached.
        floor: lower bound on the returned bandwidth (bytes/s), so a single
            slow client never sees an absurdly small value.
    """

    peak: float
    half_saturation: float = 1.0
    floor: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.peak, "peak")
        require_positive(self.half_saturation, "half_saturation")
        require_non_negative(self.floor, "floor")

    def __call__(self, streams: int) -> float:
        streams = max(1, int(streams))
        value = self.peak * streams / (streams + self.half_saturation)
        return max(value, self.floor)
