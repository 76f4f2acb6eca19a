"""Aggregation round scheduling (the paper's Algorithm 2 initialisation).

When the application calls ``TAPIOCA_Init`` it declares *every* upcoming
write (element counts, type sizes and file offsets).  From that declaration
TAPIOCA derives, per partition, a schedule of aggregation **rounds**: the
partition's data, taken in ascending file-offset order, is cut into
buffer-sized rounds, and each rank learns

* which pieces of its segments it must ``Put`` into the aggregator's buffer
  in which round and at which buffer offset (``GetRound`` /
  ``GetAggregatorRank`` / ``GetRoundSize`` in Algorithm 3), and
* which contiguous file extents the aggregator flushes at the end of each
  round.

Because the schedule spans *all* declared writes, the buffers fill completely
before each flush even when the application issues many small writes — the
behaviour contrasted with plain MPI I/O in the paper's Fig. 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.partitioning import Partition
from repro.utils.validation import require_positive
from repro.workloads.base import Segment, Workload


@dataclass(frozen=True)
class PutOp:
    """One piece of a rank's segment shipped to its aggregator in one round.

    Attributes:
        rank: producing world rank.
        round_index: aggregation round (within the partition).
        segment: the source segment declared by the workload.
        segment_offset: offset of the piece within the source segment.
        nbytes: piece length.
        buffer_offset: destination offset within the aggregation buffer.
        file_offset: absolute file offset of the piece (for verification).
    """

    rank: int
    round_index: int
    segment: Segment
    segment_offset: int
    nbytes: int
    buffer_offset: int
    file_offset: int


@dataclass(frozen=True)
class FlushOp:
    """One contiguous file extent flushed by the aggregator at a round's end.

    Attributes:
        round_index: aggregation round.
        file_offset: absolute file offset of the extent.
        nbytes: extent length.
        buffer_offset: offset of the extent within the aggregation buffer.
    """

    round_index: int
    file_offset: int
    nbytes: int
    buffer_offset: int


@dataclass
class PartitionSchedule:
    """The complete aggregation schedule of one partition.

    Puts and flushes are indexed by round, so a rank looks up what it moves
    in a round instead of scanning its whole put list every round.

    Attributes:
        partition: the partition being scheduled.
        buffer_size: aggregation buffer size in bytes.
        num_rounds: number of rounds needed to drain the partition.
        rounds_by_rank: ``{rank: {round: puts}}`` for every member rank with
            data, rounds ascending; a rank has no entry for a round in which
            it puts nothing.
        flushes_by_round: aggregator flush extents of each round.
        round_bytes: bytes aggregated in each round (== buffer_size except
            possibly the last round).
    """

    partition: Partition
    buffer_size: int
    num_rounds: int = 0
    rounds_by_rank: dict[int, dict[int, list[PutOp]]] = field(default_factory=dict)
    flushes_by_round: list[list[FlushOp]] = field(default_factory=list)
    round_bytes: list[int] = field(default_factory=list)

    @property
    def puts_by_rank(self) -> dict[int, list[PutOp]]:
        """The puts of each member rank, in round order."""
        return {
            rank: [op for ops in rounds.values() for op in ops]
            for rank, rounds in self.rounds_by_rank.items()
        }

    def flushes_for_round(self, round_index: int) -> list[FlushOp]:
        """The flush extents of ``round_index`` (possibly empty)."""
        if 0 <= round_index < len(self.flushes_by_round):
            return self.flushes_by_round[round_index]
        return []

    def total_bytes(self) -> int:
        """Bytes aggregated by this partition over all rounds."""
        return sum(self.round_bytes)


@dataclass
class AggregationSchedule:
    """Schedules of every partition, plus global round bookkeeping.

    Attributes:
        partitions: per-partition schedules (index-aligned with the
            partitions passed to :func:`build_schedule`).
        buffer_size: the aggregation buffer size used.
        num_rounds: the global number of rounds (max over partitions) —
            partitions proceed in parallel, so this bounds the pipeline depth.
    """

    partitions: list[PartitionSchedule]
    buffer_size: int
    num_rounds: int

    def total_bytes(self) -> int:
        """Total bytes aggregated across all partitions."""
        return sum(schedule.total_bytes() for schedule in self.partitions)


def _schedule_partition(
    workload: Workload, partition: Partition, buffer_size: int
) -> PartitionSchedule:
    """Cut one partition's declared data into buffer-sized rounds."""
    schedule = PartitionSchedule(partition=partition, buffer_size=buffer_size)
    segments = [
        segment
        for rank in partition.ranks.tolist()
        for segment in workload.segments_for_rank(rank)
        if segment.nbytes > 0
    ]
    if not segments:
        return schedule
    # Aggregation buffers are filled in ascending file-offset order so each
    # flush is as contiguous as the declaration allows.
    segments.sort(key=lambda s: s.offset)
    total = sum(s.nbytes for s in segments)
    schedule.num_rounds = max(1, math.ceil(total / buffer_size))
    schedule.round_bytes = [
        min(buffer_size, total - r * buffer_size) for r in range(schedule.num_rounds)
    ]
    schedule.flushes_by_round = [[] for _ in range(schedule.num_rounds)]
    cursor = 0  # running byte position within the partition's aggregate stream
    for segment in segments:
        consumed = 0
        while consumed < segment.nbytes:
            round_index, buffer_offset = divmod(cursor, buffer_size)
            take = min(segment.nbytes - consumed, buffer_size - buffer_offset)
            put = PutOp(
                rank=segment.rank,
                round_index=round_index,
                segment=segment,
                segment_offset=consumed,
                nbytes=take,
                buffer_offset=buffer_offset,
                file_offset=segment.offset + consumed,
            )
            rounds = schedule.rounds_by_rank.setdefault(segment.rank, {})
            rounds.setdefault(round_index, []).append(put)
            # Build the matching flush extent, merging with the previous one
            # when both the file range and the buffer range are contiguous.
            extents = schedule.flushes_by_round[round_index]
            if (
                extents
                and extents[-1].file_offset + extents[-1].nbytes == put.file_offset
                and extents[-1].buffer_offset + extents[-1].nbytes == buffer_offset
            ):
                last = extents[-1]
                extents[-1] = FlushOp(
                    round_index, last.file_offset, last.nbytes + take, last.buffer_offset
                )
            else:
                extents.append(FlushOp(round_index, put.file_offset, take, buffer_offset))
            consumed += take
            cursor += take
    return schedule


def build_schedule(
    workload: Workload, partitions: list[Partition], buffer_size: int
) -> AggregationSchedule:
    """Build the aggregation schedule for every partition.

    Args:
        workload: the declared workload (``TAPIOCA_Init`` information).
        partitions: aggregation partitions (see :func:`repro.core.partitioning.build_partitions`).
        buffer_size: aggregation buffer size in bytes.
    """
    require_positive(buffer_size, "buffer_size")
    schedules = [
        _schedule_partition(workload, partition, buffer_size)
        for partition in partitions
    ]
    num_rounds = max((s.num_rounds for s in schedules), default=0)
    return AggregationSchedule(
        partitions=schedules, buffer_size=buffer_size, num_rounds=num_rounds
    )
