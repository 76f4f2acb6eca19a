"""Workload abstraction shared by the I/O libraries and the performance model.

The key concept mirrors the paper's API difference (Algorithms 1 and 2):

* MPI I/O sees the workload **one collective call at a time** — each call is
  an independent ``MPI_File_write_at_all`` and the library cannot aggregate
  across calls;
* TAPIOCA is **initialised with every segment up front**
  (``TAPIOCA_Init(count, type, offset, nVar)``) and can therefore schedule
  aggregation so buffers fill completely before each flush.

A :class:`Workload` exposes both views: every segment carries its call's
index, and :meth:`Workload.segments_for_rank` is the full per-rank
declaration.  :meth:`Workload.segment_table` is the same declaration as
aligned int64 arrays, which the aggregation round schedule reads.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils.rng import derive_seeds, pcg64_states
from repro.utils.validation import require_non_negative


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of file data owned by one rank.

    Attributes:
        rank: owning MPI rank.
        offset: absolute byte offset in the shared file.
        nbytes: segment length in bytes.
        call_index: index of the collective call this segment belongs to.
        variable: name of the application variable (diagnostics only).
    """

    rank: int
    offset: int
    nbytes: int
    call_index: int = 0
    variable: str = "data"

    def __post_init__(self) -> None:
        # Payload seeds digest these fields' repr, so a numpy integer must
        # become the equal Python int it stands for.
        for name in ("rank", "offset", "nbytes", "call_index"):
            value = operator.index(getattr(self, name))
            require_non_negative(value, name)
            object.__setattr__(self, name, value)

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.offset + self.nbytes


class SegmentTable(NamedTuple):
    """Every declared segment as aligned int64 arrays.

    Rows run rank by rank, each rank's segments in
    :meth:`Workload.segments_for_rank` order (zero-byte segments included).
    """

    rank: np.ndarray
    offset: np.ndarray
    nbytes: np.ndarray
    call_index: np.ndarray

    @classmethod
    def of(cls, segments) -> SegmentTable:
        """The table of an iterable of :class:`Segment`, in its order."""
        rows = [(s.rank, s.offset, s.nbytes, s.call_index) for s in segments]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy())


class Workload(abc.ABC):
    """Abstract I/O workload.

    Concrete workloads are *uniform across ranks* unless stated otherwise:
    every rank writes the same amount of data, which matches both IOR and
    HACC-IO as used in the paper.
    """

    #: Human readable workload name.
    name: str = "workload"
    #: Number of MPI ranks the workload is defined for.
    num_ranks: int
    #: Access type: ``"write"`` or ``"read"``.
    access: str = "write"

    # ------------------------------------------------------------------ #
    # Structure (must be implemented)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def num_calls(self) -> int:
        """Number of collective calls the application issues."""

    @abc.abstractmethod
    def segments_for_rank(self, rank: int) -> list[Segment]:
        """All segments of ``rank``, in call order."""

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def segment_table(self) -> SegmentTable:
        """Every rank's segments as one :class:`SegmentTable`.

        The default enumerates :meth:`segments_for_rank`; regular workloads
        override it with array arithmetic.
        """
        return SegmentTable.of(
            segment for rank in range(self.num_ranks) for segment in self.segments_for_rank(rank)
        )

    def bytes_per_rank(self, rank: int = 0) -> int:
        """Total bytes written/read by one rank."""
        return sum(s.nbytes for s in self.segments_for_rank(rank))

    def uniform_rank_bytes(self) -> int | None:
        """Bytes of each rank when every rank moves the same amount, else
        ``None`` (the default).  Uniform workloads override it: it fills
        :meth:`rank_bytes`, and it is the volume input of the analytic
        models' memoised aggregation (:mod:`repro.perfmodel.batch`)."""
        return None

    def rank_bytes(self) -> np.ndarray:
        """Bytes of every rank as an int64 array (index = rank).

        The analytic path reads volumes from this array instead of calling
        :meth:`bytes_per_rank` once per rank; a uniform workload's is a
        constant fill of :meth:`uniform_rank_bytes`.
        """
        uniform = self.uniform_rank_bytes()
        if uniform is not None:
            return np.full(self.num_ranks, uniform, dtype=np.int64)
        return np.fromiter(
            (self.bytes_per_rank(rank) for rank in range(self.num_ranks)),
            dtype=np.int64,
            count=self.num_ranks,
        )

    def total_bytes(self) -> int:
        """Total bytes moved by all ranks."""
        return sum(self.bytes_per_rank(rank) for rank in range(self.num_ranks))

    def file_size(self) -> int:
        """Size of the file image the workload defines (max segment end)."""
        table = self.segment_table()
        return int((table.offset + table.nbytes).max(initial=0))

    def validate_rank(self, rank: int) -> int:
        """Raise ``ValueError`` for an out-of-range rank."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(
                f"rank {rank} out of range [0, {self.num_ranks}) for {self.name}"
            )
        return rank

    # ------------------------------------------------------------------ #
    # Deterministic payloads (for byte-exact verification)
    # ------------------------------------------------------------------ #

    #: Seed mixed into payload generation; override for distinct instances.
    payload_seed: int = 0

    def segment_payloads(self, table: SegmentTable) -> list[bytes]:
        """Deterministic payload bytes of every row of ``table``, in row order.

        A row's bytes depend on its rank, call index and offset, so any
        misplacement by an I/O library shows up as a content mismatch in
        the end-to-end tests.  The contract, per row:

        1. the seed is :func:`~repro.utils.rng.derive_seed` of
           ``(payload_seed, name, rank, call_index, offset)`` (SHA-256 of
           the fields as Python ints);
        2. the seed goes through numpy's ``SeedSequence`` into PCG64, as
           ``np.random.PCG64(seed)`` would seed it;
        3. the bytes are the first ``nbytes`` of the little-endian 64-bit
           words PCG64 then draws: the bytes ``Generator.integers(0, 256,
           nbytes, dtype=np.uint8)`` takes from the same stream.

        This batch is the only draw: steps 1 and 2 run once over the whole
        table and one reused ``PCG64`` draws every row.
        """
        seeds = derive_seeds(
            self.payload_seed, (self.name,), table.rank, table.call_index, table.offset
        )
        bit_generator = np.random.PCG64(0)
        payloads = []
        for state, inc, nbytes in zip(*pcg64_states(seeds), table.nbytes.tolist()):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            words = bit_generator.random_raw(-(-nbytes // 8))
            payloads.append(words.astype("<u8", copy=False).tobytes()[:nbytes])
        return payloads

    def segment_payload(self, rank: int, offset: int, nbytes: int, call_index: int) -> bytes:
        """Payload bytes of one ``(rank, offset, nbytes, call_index)`` row.

        The SHA-256 seed, ``SeedSequence`` and PCG64 words contract of
        :meth:`segment_payloads`, which draws it as a one-row batch: there
        is no other draw path.
        """
        return self.payload(Segment(rank, offset, nbytes, call_index))

    def payload(self, segment: Segment) -> bytes:
        """:meth:`segment_payloads` of one :class:`Segment`."""
        return self.segment_payloads(SegmentTable.of([segment]))[0]

    def rank_payloads(self, rank: int) -> dict[int, bytes]:
        """``{offset: payload}`` of ``rank``'s segments with data, drawn in one batch."""
        segments = [segment for segment in self.segments_for_rank(rank) if segment.nbytes > 0]
        offsets = [segment.offset for segment in segments]
        return dict(zip(offsets, self.segment_payloads(SegmentTable.of(segments))))

    def expected_file_image(self) -> bytes:
        """The complete expected file contents (zero-filled holes).

        Only intended for small (test-scale) workloads.
        """
        image = bytearray(self.file_size())
        table = self.segment_table()
        for offset, nbytes, payload in zip(
            table.offset.tolist(), table.nbytes.tolist(), self.segment_payloads(table)
        ):
            image[offset : offset + nbytes] = payload
        return bytes(image)

    # ------------------------------------------------------------------ #
    # Uniform-workload helpers used by the analytic model
    # ------------------------------------------------------------------ #

    def is_uniform(self) -> bool:
        """Whether every rank moves the same per-call byte counts."""
        return True

    def segment_sizes_per_call(self) -> list[int]:
        """Per-rank segment size of each call (uniform workloads)."""
        reference = self.segments_for_rank(0)
        sizes = [0] * self.num_calls()
        for segment in reference:
            sizes[segment.call_index] += segment.nbytes
        return sizes

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} ranks={self.num_ranks} "
            f"calls={self.num_calls()} bytes/rank={self.bytes_per_rank(0)}>"
        )


def check_no_overlap(workload: Workload) -> None:
    """Validate that no two segments of a workload overlap.

    Overlapping segments would make the expected file image ambiguous (the
    result depends on write ordering); all shipped workloads are
    non-overlapping and the property-based tests use this check.

    Raises:
        ValueError: if two segments overlap.
    """
    table = workload.segment_table()
    data = table.nbytes > 0
    start, rank = table.offset[data], table.rank[data]
    end = start + table.nbytes[data]
    order = np.lexsort((rank, end, start))
    start, end, rank = start[order], end[order], rank[order]
    clashes = np.flatnonzero(start[1:] < end[:-1])
    if clashes.size:
        first = int(clashes[0])
        raise ValueError(
            f"segments overlap: rank {rank[first]} [{start[first]}, {end[first]}) and "
            f"rank {rank[first + 1]} starting at {start[first + 1]}"
        )
