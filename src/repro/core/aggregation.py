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

The schedule is built for every partition at once, from the workload's
:class:`~repro.workloads.base.SegmentTable` and the partitions' offsets
table (:class:`~repro.core.partitioning.Partitions`):

1. each segment with data is tagged with its rank's partition, and one
   stable sort by (partition, file offset, rank position in the partition)
   lays out every partition's *stream*, back to back;
2. a running sum gives each segment its stream position ``s`` within its
   partition, so a segment of ``n`` bytes spans rounds ``s // B`` to
   ``(s + n - 1) // B`` of a ``B``-byte buffer; ``np.repeat`` turns each
   segment into one put per round it spans, cut at the round boundaries;
3. consecutive puts of one partition and round fill the buffer back to
   back, so one boundary mask (partition, round or file contiguity
   changes) splits them into the round's flush extents.

Puts and flushes are flat arrays, partition by partition in stream order,
with their own offsets tables (:class:`AggregationSchedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.partitioning import Partitions, offsets_of
from repro.utils.validation import require_positive
from repro.workloads.base import SegmentTable, Workload


class Puts(NamedTuple):
    """Every piece a rank ships to its aggregator, as aligned int64 arrays."""

    rank: np.ndarray  # producing world rank
    round: np.ndarray  # aggregation round, within the partition
    segment: np.ndarray  # row of the source segment in the segment table
    segment_offset: np.ndarray  # offset of the piece within its segment
    nbytes: np.ndarray
    buffer_offset: np.ndarray  # destination offset in the aggregation buffer
    file_offset: np.ndarray


class Flushes(NamedTuple):
    """Every contiguous file extent an aggregator flushes at a round's end."""

    round: np.ndarray
    file_offset: np.ndarray
    nbytes: np.ndarray
    buffer_offset: np.ndarray  # offset of the extent in the aggregation buffer


@dataclass(frozen=True, eq=False)
class AggregationSchedule:
    """The rounds, puts and flushes of every partition.

    Partition ``p``'s puts are rows ``put_offsets[p]:put_offsets[p + 1]``
    of :attr:`puts` and its flushes rows
    ``flush_offsets[p]:flush_offsets[p + 1]`` of :attr:`flushes`, both in
    stream order (rounds ascending).  ``puts.segment`` indexes
    :attr:`segments`, the workload's declaration, and :attr:`totals` holds
    each partition's bytes.
    """

    buffer_size: int
    segments: SegmentTable
    totals: np.ndarray
    put_offsets: np.ndarray
    puts: Puts
    flush_offsets: np.ndarray
    flushes: Flushes

    @property
    def rounds(self) -> np.ndarray:
        """Rounds each partition needs to drain its data (0 without data)."""
        return -(-self.totals // self.buffer_size)

    @property
    def num_rounds(self) -> int:
        """The global number of rounds (max over partitions): partitions
        proceed in parallel, so this bounds the pipeline depth."""
        return int(self.rounds.max(initial=0))

    def round_bytes(self, partition: int) -> list[int]:
        """Bytes aggregated in each round of a partition (== buffer_size
        except possibly the last round)."""
        total, size = int(self.totals[partition]), self.buffer_size
        return [min(size, total - start) for start in range(0, total, size)]

    def total_bytes(self) -> int:
        """Total bytes aggregated across all partitions."""
        return int(self.totals.sum())

    def rank_rounds(self) -> dict[int, dict[int, list[tuple[int, int, int, int]]]]:
        """``{rank: {round: pieces}}`` for every rank with data, rounds ascending.

        A piece is ``(segment, segment_offset, nbytes, buffer_offset)``; a
        rank has no entry for a round in which it puts nothing.
        """
        puts = self.puts
        fields = (puts.segment, puts.segment_offset, puts.nbytes, puts.buffer_offset)
        pieces = zip(*(field.tolist() for field in fields))
        by_rank: dict[int, dict[int, list[tuple[int, int, int, int]]]] = {}
        for rank, round_index, piece in zip(puts.rank.tolist(), puts.round.tolist(), pieces):
            by_rank.setdefault(rank, {}).setdefault(round_index, []).append(piece)
        return by_rank

    def flush_rounds(self) -> list[list[list[tuple[int, int, int]]]]:
        """``[partition][round]``: that round's ``(file_offset, nbytes,
        buffer_offset)`` extents."""
        result = [[[] for _ in range(rounds)] for rounds in self.rounds.tolist()]
        flushes = self.flushes
        owners = np.repeat(np.arange(len(result)), np.diff(self.flush_offsets)).tolist()
        fields = (flushes.file_offset, flushes.nbytes, flushes.buffer_offset)
        extents = zip(*(field.tolist() for field in fields))
        for partition, round_index, extent in zip(owners, flushes.round.tolist(), extents):
            result[partition][round_index].append(extent)
        return result


def build_schedule(
    workload: Workload, partitions: Partitions, buffer_size: int
) -> AggregationSchedule:
    """Build the aggregation schedule for every partition.

    Args:
        workload: the declared workload (``TAPIOCA_Init`` information).
        partitions: aggregation partitions (see :func:`repro.core.partitioning.build_partitions`).
        buffer_size: aggregation buffer size in bytes.
    """
    require_positive(buffer_size, "buffer_size")
    table = workload.segment_table()
    count = len(partitions)
    # Partition of every rank (-1: in none) and the rank's position in it,
    # which breaks file-offset ties as the declaration order does.
    owners = np.full(workload.num_ranks, -1, dtype=np.int64)
    owners[partitions.ranks] = partitions.segments
    position = np.zeros(workload.num_ranks, dtype=np.int64)
    position[partitions.ranks] = np.arange(partitions.ranks.size)
    owner = owners[table.rank]
    data = np.flatnonzero((owner >= 0) & (table.nbytes > 0))
    stream = data[np.lexsort((position[table.rank[data]], table.offset[data], owner[data]))]
    owner = owner[stream]
    nbytes = table.nbytes[stream]
    # Stream position of every segment within its partition.
    ends = offsets_of(nbytes)
    bounds = ends[offsets_of(np.bincount(owner, minlength=count))]
    totals = np.diff(bounds)
    cursor = ends[:-1] - bounds[owner]
    # One put per round a segment spans.
    first = cursor // buffer_size
    pieces = (cursor + nbytes - 1) // buffer_size - first + 1
    source = np.repeat(np.arange(stream.size), pieces)
    round_index = first[source] + np.arange(source.size) - offsets_of(pieces)[:-1][source]
    round_start = round_index * buffer_size
    start = np.maximum(cursor[source], round_start)
    stop = np.minimum((cursor + nbytes)[source], round_start + buffer_size)
    segment_offset = start - cursor[source]
    file_offset = table.offset[stream][source] + segment_offset
    put_nbytes = stop - start
    buffer_offset = start - round_start
    put_owner = owner[source]
    puts = Puts(
        table.rank[stream][source], round_index, stream[source], segment_offset, put_nbytes,
        buffer_offset, file_offset,
    )
    # A flush extent starts at every put that does not continue the previous
    # one's partition, round and file range.
    fresh = np.ones(source.size, dtype=bool)
    fresh[1:] = (
        (put_owner[1:] != put_owner[:-1])
        | (round_index[1:] != round_index[:-1])
        | (file_offset[1:] != (file_offset + put_nbytes)[:-1])
    )
    heads = np.flatnonzero(fresh)
    flushes = Flushes(
        round_index[heads],
        file_offset[heads],
        np.diff(offsets_of(put_nbytes)[np.append(heads, source.size)]),
        buffer_offset[heads],
    )
    return AggregationSchedule(
        buffer_size=buffer_size,
        segments=table,
        totals=totals,
        put_offsets=offsets_of(np.bincount(put_owner, minlength=count)),
        puts=puts,
        flush_offsets=offsets_of(np.bincount(put_owner[heads], minlength=count)),
        flushes=flushes,
    )
