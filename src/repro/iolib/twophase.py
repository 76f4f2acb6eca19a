"""Discrete-event implementation of ROMIO-style two-phase collective I/O.

This is the baseline the paper compares TAPIOCA against.  Its behaviour
follows the classic ROMIO design:

1. For **each collective call independently**, the byte range touched by the
   call is split into equal contiguous *file domains*, one per aggregator.
2. The domain is processed in rounds of ``cb_buffer_size`` bytes.  In each
   round every rank ships the part of its data falling into the current
   round window to the owning aggregator (modelled as RMA puts into the
   aggregator's staging buffer), then the aggregator writes the covered
   extents to the file.  Aggregation and I/O are **not overlapped**.
3. The aggregators are chosen by the default policy (bridge node first, then
   rank order) regardless of topology or data volumes.

Because each call is handled independently, a workload that issues several
small collective writes (e.g. HACC-IO SoA, one call per variable) flushes
several partially-filled buffers — the exact limitation the paper's Fig. 2
illustrates and TAPIOCA removes.

The implementation runs on :mod:`repro.simmpi`, moves real bytes, and writes
real (simulated) files, so its output can be verified byte-for-byte against
the workload's expected file image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.iolib.aggregators import select_default_aggregators
from repro.iolib.hints import MPIIOHints
from repro.obs import recorder as obs_recorder
from repro.simmpi.engine import Event
from repro.simmpi.errors import SimMPIError
from repro.simmpi.world import RankContext, SimWorld
from repro.workloads.base import Segment, Workload


@dataclass(frozen=True)
class _PutPiece:
    """One piece of a rank's segment shipped to an aggregator in one round."""

    rank: int
    aggregator_index: int
    round_index: int
    file_offset: int
    nbytes: int
    segment: Segment
    segment_offset: int  # offset of this piece within its source segment


@dataclass(frozen=True)
class _FlushExtent:
    """A contiguous file extent one aggregator writes at the end of a round."""

    aggregator_index: int
    round_index: int
    file_offset: int
    nbytes: int


@dataclass
class _CallSchedule:
    """Exchange/flush schedule of one collective call."""

    call_index: int
    domain_starts: list[int]
    domain_size: int
    num_rounds: int
    pieces_by_rank: dict[int, list[_PutPiece]] = field(default_factory=dict)
    flushes_by_aggregator: dict[int, list[_FlushExtent]] = field(default_factory=dict)
    lower: int = 0
    upper: int = 0


def _merge_extents(extents: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent (start, end) intervals."""
    if not extents:
        return []
    extents = sorted(extents)
    merged = [extents[0]]
    for start, end in extents[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class TwoPhaseCollectiveIO:
    """ROMIO-style two-phase collective writer/reader for one world.

    Args:
        world: the simulation world the ranks run in.
        workload: the workload being written/read (used both to pre-compute
            the exchange schedule and to generate payload bytes).
        hints: MPI-IO hints; ``cb_nodes``/``cb_buffer_size`` drive the
            aggregation, striping hints are applied by the caller when
            building the machine's file-system model.
        path: file path written to (within the world's file registry).
        aggregator_policy: one of ``"default"``, ``"rank-order"``, ``"random"``.
        shared_locks: passed through to the file model (lock-sharing tuning).
    """

    def __init__(
        self,
        world: SimWorld,
        workload: Workload,
        hints: MPIIOHints | None = None,
        *,
        path: str = "/out/mpiio.dat",
        aggregator_policy: str = "default",
        shared_locks: bool | None = None,
    ) -> None:
        self.world = world
        self.workload = workload
        self.hints = hints or MPIIOHints()
        self.path = path
        if workload.num_ranks != world.num_ranks:
            raise SimMPIError(
                f"workload defines {workload.num_ranks} ranks but the world has "
                f"{world.num_ranks}"
            )
        self.num_aggregators = self.hints.resolve_cb_nodes(world.num_nodes)
        self.num_aggregators = max(1, min(self.num_aggregators, world.num_ranks))
        self.aggregator_ranks = select_default_aggregators(
            world.machine,
            world.mapping,
            self.num_aggregators,
            policy=aggregator_policy,
        )
        locks = self.hints.shared_locks if shared_locks is None else shared_locks
        self.file = world.open_file(path, shared_locks=locks)
        self._schedules: dict[int, _CallSchedule] = {}
        self._window = None
        #: Diagnostics: number of file write operations issued.
        self.flush_count = 0

    # ------------------------------------------------------------------ #
    # Schedule computation (pure, shared by all ranks)
    # ------------------------------------------------------------------ #

    def _schedule_for_call(self, call_index: int) -> _CallSchedule:
        """Build (once) the exchange/flush schedule of a collective call."""
        if call_index in self._schedules:
            return self._schedules[call_index]
        segments = [
            segment
            for rank in range(self.workload.num_ranks)
            for segment in self.workload.segments_for_rank(rank)
            if segment.call_index == call_index and segment.nbytes > 0
        ]
        if not segments:
            schedule = _CallSchedule(call_index, [], 0, 0)
            self._schedules[call_index] = schedule
            return schedule
        lower = min(segment.offset for segment in segments)
        upper = max(segment.end for segment in segments)
        num_aggr = self.num_aggregators
        domain_size = max(1, math.ceil((upper - lower) / num_aggr))
        domain_starts = [lower + a * domain_size for a in range(num_aggr)]
        buffer_size = self.hints.cb_buffer_size
        num_rounds = max(1, math.ceil(domain_size / buffer_size))
        schedule = _CallSchedule(
            call_index=call_index,
            domain_starts=domain_starts,
            domain_size=domain_size,
            num_rounds=num_rounds,
            lower=lower,
            upper=upper,
        )
        # Intersect every segment with every (aggregator, round) window.
        flush_raw: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for segment in segments:
            first_domain = max(0, (segment.offset - lower) // domain_size)
            last_domain = min(num_aggr - 1, (segment.end - 1 - lower) // domain_size)
            for aggregator_index in range(first_domain, last_domain + 1):
                domain_start = domain_starts[aggregator_index]
                domain_end = min(domain_start + domain_size, upper)
                overlap_start = max(segment.offset, domain_start)
                overlap_end = min(segment.end, domain_end)
                if overlap_start >= overlap_end:
                    continue
                first_round = (overlap_start - domain_start) // buffer_size
                last_round = (overlap_end - 1 - domain_start) // buffer_size
                for round_index in range(first_round, last_round + 1):
                    window_start = domain_start + round_index * buffer_size
                    window_end = min(window_start + buffer_size, domain_end)
                    piece_start = max(overlap_start, window_start)
                    piece_end = min(overlap_end, window_end)
                    if piece_start >= piece_end:
                        continue
                    piece = _PutPiece(
                        rank=segment.rank,
                        aggregator_index=aggregator_index,
                        round_index=round_index,
                        file_offset=piece_start,
                        nbytes=piece_end - piece_start,
                        segment=segment,
                        segment_offset=piece_start - segment.offset,
                    )
                    schedule.pieces_by_rank.setdefault(segment.rank, []).append(piece)
                    flush_raw.setdefault(
                        (aggregator_index, round_index), []
                    ).append((piece_start, piece_end))
        for (aggregator_index, round_index), extents in flush_raw.items():
            merged = _merge_extents(extents)
            schedule.flushes_by_aggregator.setdefault(aggregator_index, []).extend(
                _FlushExtent(aggregator_index, round_index, start, end - start)
                for start, end in merged
            )
        for flushes in schedule.flushes_by_aggregator.values():
            flushes.sort(key=lambda f: (f.round_index, f.file_offset))
        self._schedules[call_index] = schedule
        return schedule

    # ------------------------------------------------------------------ #
    # Rank program pieces
    # ------------------------------------------------------------------ #

    def _ensure_window(self, ctx: RankContext) -> Generator[Event, Any, None]:
        """Collectively allocate the aggregation window (staging buffers)."""
        if self._window is None:
            size = (
                self.hints.cb_buffer_size
                if ctx.rank in self.aggregator_ranks
                else 0
            )
            window = yield from ctx.comm.create_window(size)
            # All ranks receive the same Window object from the collective;
            # only the first assignment matters.
            self._window = window

    def aggregator_index_of_rank(self, rank: int) -> int | None:
        """Index of the aggregator owned by ``rank`` (``None`` if not an aggregator)."""
        try:
            return self.aggregator_ranks.index(rank)
        except ValueError:
            return None

    def write(self, ctx: RankContext) -> Generator[Event, Any, int]:
        """Collective write of the whole workload (all calls, in order).

        To be invoked from a rank program: ``yield from two_phase.write(ctx)``.
        Returns the number of bytes this rank contributed.
        """
        if not self.hints.collective_buffering:
            return (yield from self._independent_write(ctx))
        yield from self._ensure_window(ctx)
        window = self._window
        my_aggregator_index = self.aggregator_index_of_rank(ctx.rank)
        # A file domain may cut a segment into several pieces; every
        # segment's payload is drawn once, in this rank's one batch.
        payloads = self.workload.rank_payloads(ctx.rank)
        bytes_contributed = 0
        for call_index in range(self.workload.num_calls()):
            # The offset/length exchange of a real implementation: costs one
            # allgather of a few integers.
            yield from ctx.comm.allgather(0, nbytes=16)
            schedule = self._schedule_for_call(call_index)
            if schedule.num_rounds == 0:
                yield from ctx.comm.barrier()
                continue
            my_pieces = schedule.pieces_by_rank.get(ctx.rank, [])
            my_flushes = (
                schedule.flushes_by_aggregator.get(my_aggregator_index, [])
                if my_aggregator_index is not None
                else []
            )
            for round_index in range(schedule.num_rounds):
                yield from window.fence(ctx.rank)
                # Aggregation phase: ship this round's pieces.
                for piece in my_pieces:
                    if piece.round_index != round_index:
                        continue
                    chunk = payloads[piece.segment.offset][
                        piece.segment_offset : piece.segment_offset + piece.nbytes
                    ]
                    window_start = (
                        schedule.domain_starts[piece.aggregator_index]
                        + round_index * self.hints.cb_buffer_size
                    )
                    target_rank = self.aggregator_ranks[piece.aggregator_index]
                    yield from window.put(
                        ctx.rank,
                        chunk,
                        target_rank,
                        piece.file_offset - window_start,
                    )
                    bytes_contributed += piece.nbytes
                yield from window.fence(ctx.rank)
                # I/O phase (sequential — no overlap with the next round).
                if my_aggregator_index is not None:
                    window_start = (
                        schedule.domain_starts[my_aggregator_index]
                        + round_index * self.hints.cb_buffer_size
                    )
                    for flush in my_flushes:
                        if flush.round_index != round_index:
                            continue
                        buffer_offset = flush.file_offset - window_start
                        data = bytes(
                            window.buffer(ctx.rank)[
                                buffer_offset : buffer_offset + flush.nbytes
                            ]
                        )
                        yield from self.file.write_at(flush.file_offset, data)
                        self.flush_count += 1
                        rec = obs_recorder()
                        if rec is not None:
                            rec.inc("sim.buffer_fills", io="twophase")
                            rec.inc("sim.flush_bytes", flush.nbytes, io="twophase")
            yield from ctx.comm.barrier()
        return bytes_contributed

    def read(self, ctx: RankContext) -> Generator[Event, Any, dict[int, bytes]]:
        """Collective read: aggregators read their domains, ranks fetch their pieces.

        Returns a mapping ``{segment.offset: segment bytes}`` for this rank's
        segments, which tests compare against the expected payloads.
        """
        yield from self._ensure_window(ctx)
        window = self._window
        my_aggregator_index = self.aggregator_index_of_rank(ctx.rank)
        assembled: dict[int, bytearray] = {
            segment.offset: bytearray(segment.nbytes)
            for segment in self.workload.segments_for_rank(ctx.rank)
            if segment.nbytes > 0
        }
        for call_index in range(self.workload.num_calls()):
            yield from ctx.comm.allgather(0, nbytes=16)
            schedule = self._schedule_for_call(call_index)
            if schedule.num_rounds == 0:
                yield from ctx.comm.barrier()
                continue
            my_pieces = schedule.pieces_by_rank.get(ctx.rank, [])
            my_flushes = (
                schedule.flushes_by_aggregator.get(my_aggregator_index, [])
                if my_aggregator_index is not None
                else []
            )
            for round_index in range(schedule.num_rounds):
                # I/O phase first: aggregators read their extents into buffers.
                if my_aggregator_index is not None:
                    window_start = (
                        schedule.domain_starts[my_aggregator_index]
                        + round_index * self.hints.cb_buffer_size
                    )
                    for flush in my_flushes:
                        if flush.round_index != round_index:
                            continue
                        data = yield from self.file.read_at(
                            flush.file_offset, flush.nbytes
                        )
                        buffer_offset = flush.file_offset - window_start
                        window.buffer(ctx.rank)[
                            buffer_offset : buffer_offset + flush.nbytes
                        ] = bytearray(data)
                yield from window.fence(ctx.rank)
                # Distribution phase: ranks pull their pieces.
                for piece in my_pieces:
                    if piece.round_index != round_index:
                        continue
                    window_start = (
                        schedule.domain_starts[piece.aggregator_index]
                        + round_index * self.hints.cb_buffer_size
                    )
                    source_rank = self.aggregator_ranks[piece.aggregator_index]
                    data = yield from window.get(
                        ctx.rank,
                        source_rank,
                        piece.file_offset - window_start,
                        piece.nbytes,
                    )
                    target = assembled[piece.segment.offset]
                    target[
                        piece.segment_offset : piece.segment_offset + piece.nbytes
                    ] = data
                yield from window.fence(ctx.rank)
            yield from ctx.comm.barrier()
        return {offset: bytes(buf) for offset, buf in assembled.items()}

    # ------------------------------------------------------------------ #
    # Fallback: collective buffering disabled
    # ------------------------------------------------------------------ #

    def _independent_write(self, ctx: RankContext) -> Generator[Event, Any, int]:
        """Every rank writes its own segments directly (no aggregation)."""
        total = 0
        for offset, payload in self.workload.rank_payloads(ctx.rank).items():
            yield from self.file.write_at(offset, payload)
            total += len(payload)
        yield from ctx.comm.barrier()
        return total

    # ------------------------------------------------------------------ #
    # Convenience entry points
    # ------------------------------------------------------------------ #

    def write_program(self):
        """A rank-program function running :meth:`write` (for ``SimWorld.run``)."""
        return self.write

    def read_program(self):
        """A rank-program function running :meth:`read` (for ``SimWorld.run``)."""
        return self.read
