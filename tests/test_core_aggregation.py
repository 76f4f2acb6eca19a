"""Tests for the TAPIOCA aggregation round scheduler (Algorithm 2's Init phase)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import build_schedule
from repro.core.partitioning import build_partitions
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


def schedule_for(workload, num_aggregators, buffer_size):
    partitions = build_partitions(workload, num_aggregators)
    return build_schedule(workload, partitions, buffer_size)


def puts_of(schedule, partition):
    """Partition ``partition``'s puts as ``{field: value}`` rows."""
    start, stop = schedule.put_offsets[partition : partition + 2].tolist()
    fields = schedule.puts._fields
    columns = [column[start:stop].tolist() for column in schedule.puts]
    return [dict(zip(fields, row)) for row in zip(*columns)]


def flushes_of(schedule, partition, round_index):
    """One round's flush extents as ``{field: value}`` rows."""
    start, stop = schedule.flush_offsets[partition : partition + 2].tolist()
    fields = schedule.flushes._fields
    columns = [column[start:stop].tolist() for column in schedule.flushes]
    rows = [dict(zip(fields, row)) for row in zip(*columns)]
    return [row for row in rows if row["round"] == round_index]


class TestBasicScheduling:
    def test_round_count_matches_ceiling(self):
        workload = IORWorkload(8, transfer_size=1000)
        schedule = schedule_for(workload, 2, buffer_size=1536)
        # Each partition aggregates 4 * 1000 bytes in 1536-byte buffers.
        assert schedule.num_rounds == math.ceil(4000 / 1536)
        assert schedule.rounds.tolist() == [schedule.num_rounds] * 2

    def test_single_round_when_buffer_is_large(self):
        workload = IORWorkload(8, transfer_size=100)
        schedule = schedule_for(workload, 2, buffer_size=10_000)
        assert schedule.num_rounds == 1

    def test_round_bytes_never_exceed_buffer(self):
        workload = HACCIOWorkload(12, 321, layout="soa")
        schedule = schedule_for(workload, 3, buffer_size=2048)
        for partition in range(3):
            assert all(0 < b <= 2048 for b in schedule.round_bytes(partition))

    def test_total_bytes_preserved(self):
        workload = HACCIOWorkload(12, 321, layout="soa")
        schedule = schedule_for(workload, 3, buffer_size=2048)
        assert schedule.total_bytes() == workload.total_bytes()

    def test_puts_cover_each_segment_exactly(self):
        workload = HACCIOWorkload(8, 100, layout="soa")
        schedule = schedule_for(workload, 2, buffer_size=1024)
        table = schedule.segments
        partitions = build_partitions(workload, 2)
        for partition in range(2):
            covered: dict[int, int] = {}
            for put in puts_of(schedule, partition):
                covered[put["segment"]] = covered.get(put["segment"], 0) + put["nbytes"]
                assert put["rank"] == table.rank[put["segment"]]
            members = set(partitions.ranks_of(partition).tolist())
            rows = enumerate(zip(table.rank.tolist(), table.nbytes.tolist()))
            expected = {row: nbytes for row, (rank, nbytes) in rows if rank in members and nbytes}
            assert covered == expected

    def test_flushes_match_round_bytes(self):
        workload = IORWorkload(8, transfer_size=1000)
        schedule = schedule_for(workload, 2, buffer_size=1536)
        for partition in range(2):
            for round_index, nbytes in enumerate(schedule.round_bytes(partition)):
                flushed = sum(f["nbytes"] for f in flushes_of(schedule, partition, round_index))
                assert flushed == nbytes

    def test_flush_buffer_ranges_do_not_overlap_within_round(self):
        workload = SyntheticWorkload(12, calls=3, seed=4, max_segment_bytes=900)
        schedule = schedule_for(workload, 3, buffer_size=1024)
        for partition in range(3):
            for round_index in range(int(schedule.rounds[partition])):
                ranges = sorted(
                    (f["buffer_offset"], f["buffer_offset"] + f["nbytes"])
                    for f in flushes_of(schedule, partition, round_index)
                )
                for (_start_a, end_a), (start_b, _end_b) in zip(ranges, ranges[1:]):
                    assert start_b >= end_a

    def test_contiguous_file_data_produces_one_flush_per_round(self):
        # IOR data is contiguous across the partition, so each full round is
        # exactly one contiguous flush extent (the Fig. 2 behaviour).
        workload = IORWorkload(8, transfer_size=1024)
        schedule = schedule_for(workload, 2, buffer_size=2048)
        for partition in range(2):
            for round_index in range(int(schedule.rounds[partition])):
                assert len(flushes_of(schedule, partition, round_index)) == 1

    def test_soa_single_fill_pass_unlike_per_call_flushes(self):
        # TAPIOCA schedules across all nine variables: with a buffer equal to
        # a rank's total data, one round suffices even for SoA.
        workload = HACCIOWorkload(4, 100, layout="soa")
        per_rank = workload.bytes_per_rank(0)
        schedule = schedule_for(workload, 4, buffer_size=per_rank)
        assert schedule.num_rounds == 1

    def test_schedule_of_rank_lookup(self):
        workload = IORWorkload(8, transfer_size=128)
        partitions = build_partitions(workload, 2)
        schedule = build_schedule(workload, partitions, 256)
        owners = partitions.owners
        assert owners[7] == 1
        assert len(owners) == 8
        assert list(schedule.rank_rounds()[7]) == [1]

    def test_invalid_buffer_size(self):
        workload = IORWorkload(4, transfer_size=128)
        partitions = build_partitions(workload, 2)
        with pytest.raises(ValueError):
            build_schedule(workload, partitions, 0)


class TestSchedulingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_ranks=st.integers(min_value=1, max_value=10),
        calls=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=5000),
        num_aggregators=st.integers(min_value=1, max_value=6),
        buffer_size=st.sampled_from([64, 257, 1024, 4096]),
    )
    def test_invariants_for_arbitrary_workloads(
        self, num_ranks, calls, seed, num_aggregators, buffer_size
    ):
        """Conservation, bounds and coverage hold for any declaration."""
        workload = SyntheticWorkload(
            num_ranks, calls=calls, seed=seed, max_segment_bytes=700
        )
        partitions = build_partitions(workload, num_aggregators)
        schedule = build_schedule(workload, partitions, buffer_size)
        # 1. every byte is scheduled exactly once
        assert schedule.total_bytes() == workload.total_bytes()
        for partition, partition_total in enumerate(partitions.totals().tolist()):
            round_bytes = schedule.round_bytes(partition)
            num_rounds = int(schedule.rounds[partition])
            assert sum(round_bytes) == partition_total
            assert len(round_bytes) == num_rounds
            # 2. round sizes bounded by the buffer, full except possibly last
            for index, nbytes in enumerate(round_bytes):
                assert 0 < nbytes <= buffer_size
                if index < num_rounds - 1:
                    assert nbytes == buffer_size
            # 3. puts land within the buffer
            puts = puts_of(schedule, partition)
            for put in puts:
                assert 0 <= put["buffer_offset"] < buffer_size
                assert put["buffer_offset"] + put["nbytes"] <= buffer_size
                assert 0 <= put["round"] < num_rounds
            # 4. flush extents reference bytes that were actually put
            for round_index in range(num_rounds):
                flushed = sum(
                    f["nbytes"] for f in flushes_of(schedule, partition, round_index)
                )
                put_bytes = sum(put["nbytes"] for put in puts if put["round"] == round_index)
                assert flushed == put_bytes == round_bytes[round_index]
