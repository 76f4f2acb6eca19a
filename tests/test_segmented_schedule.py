"""The segmented partitions, segment tables, payloads and round schedule
against their per-object oracles in ``tests/reference/``, with exact ``==``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import build_schedule
from repro.core.api import DeclaredWorkload
from repro.core.config import TapiocaConfig
from repro.core.partitioning import Partitions, build_partitions
from repro.core.runtime import TapiocaIO
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.perfmodel.tapioca import model_tapioca
from repro.simmpi.world import SimWorld
from repro.topology.mapping import block_mapping, random_mapping
from repro.workloads import base as workloads_base
from repro.utils import rng
from repro.workloads.base import Segment, SegmentTable
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload

from reference import aggregation as reference_schedule
from reference import partitioning as reference


def _workloads():
    """Irregular and regular declarations: seeded synthetic ones (zero-byte
    segments, offsets shuffled across ranks and calls), HACC AoS/SoA, IOR
    with several iterations, and a paper-style ``TAPIOCA_Init`` one."""
    synthetic = [
        SyntheticWorkload(32, calls=calls, seed=seed, max_segment_bytes=size)
        for seed, calls, size in ((1, 3, 900), (2, 4, 5000), (3, 1, 64), (4, 5, 2048))
    ]
    declared = DeclaredWorkload(
        [[(10, 4, 400 * rank), (0, 8, 0), (5, 2, 20_000 + 10 * rank)] for rank in range(32)]
    )
    return synthetic + [
        SyntheticWorkload(32, calls=3, seed=5, allow_empty=False, max_segment_bytes=1500),
        HACCIOWorkload(32, 37, layout="aos"),
        HACCIOWorkload(32, 41, layout="soa"),
        IORWorkload(32, transfer_size=1000, iterations=3),
        declared,
    ]


WORKLOADS = _workloads()
MACHINE = MiraMachine(16, pset_size=4)
MAPPING = random_mapping(32, 16, 2, seed=7)


def _partition_kwargs(partition_by):
    if partition_by == "pset":
        return {"machine": MACHINE, "mapping": MAPPING, "partition_by": "pset"}
    return {}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("partition_by", ["contiguous", "pset"])
@pytest.mark.parametrize("num_aggregators", [1, 3, 8, 40])
def test_partitions_equal_the_per_object_oracle(workload, partition_by, num_aggregators):
    kwargs = _partition_kwargs(partition_by)
    partitions = build_partitions(workload, num_aggregators, **kwargs)
    oracle = reference.build_partitions(workload, num_aggregators, **kwargs)
    assert [p.key() for p in reference.split(partitions)] == [p.key() for p in oracle]
    assert partitions.owners.tolist() == reference.rank_owners(oracle).tolist()
    assert partitions.totals().tolist() == [p.total_bytes for p in oracle]
    assert partitions.sizes.tolist() == [p.size for p in oracle]


def test_negative_volume_names_the_first_rank_over_all_partitions():
    with pytest.raises(ValueError, match=r"^volume of rank 6 must be >= 0, got -4$"):
        Partitions.from_sizes([2, 3], [1, 2, 7, 6, 5], [0, 3, 1, -4, -1])


def _oracle_schedule(workload, partitions, buffer_size):
    """``(rounds, puts, flushes)`` of every oracle partition."""
    result = []
    for partition in partitions:
        puts, flushes_by_round = reference_schedule.schedule_partition(
            workload, partition, buffer_size
        )
        result.append(
            (
                len(flushes_by_round),
                [
                    (p.rank, p.round_index, p.segment.offset, p.segment_offset, p.nbytes,
                     p.buffer_offset, p.file_offset)
                    for p in puts
                ],
                [
                    (f.round_index, f.file_offset, f.nbytes, f.buffer_offset)
                    for flushes in flushes_by_round
                    for f in flushes
                ],
            )
        )
    return result


def _array_schedule(schedule):
    """The same triples, read from the schedule's arrays."""
    puts, flushes, segments = schedule.puts, schedule.flushes, schedule.segments
    put_rows = list(
        zip(
            puts.rank.tolist(),
            puts.round.tolist(),
            segments.offset[puts.segment].tolist(),
            puts.segment_offset.tolist(),
            puts.nbytes.tolist(),
            puts.buffer_offset.tolist(),
            puts.file_offset.tolist(),
        )
    )
    flush_rows = list(zip(*(field.tolist() for field in flushes)))
    put_bounds, flush_bounds = schedule.put_offsets.tolist(), schedule.flush_offsets.tolist()
    return [
        (rounds, put_rows[put_bounds[p] : put_bounds[p + 1]],
         flush_rows[flush_bounds[p] : flush_bounds[p + 1]])
        for p, rounds in enumerate(schedule.rounds.tolist())
    ]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("partition_by", ["contiguous", "pset"])
@pytest.mark.parametrize("num_aggregators", [1, 3, 8])
@pytest.mark.parametrize("buffer_size", [37, 164, 1000, 1024, 1 << 20])
def test_schedule_equals_the_per_object_oracle(
    workload, partition_by, num_aggregators, buffer_size
):
    """Every put (rank, round, segment, offsets, bytes) and every flush, in
    order.  The buffers are smaller than, equal to (HACC SoA's 164-byte
    float arrays and IOR's 1000-byte blocks) and larger than a segment."""
    partitions = build_partitions(workload, num_aggregators, **_partition_kwargs(partition_by))
    schedule = build_schedule(workload, partitions, buffer_size)
    oracle = _oracle_schedule(workload, reference.split(partitions), buffer_size)
    assert _array_schedule(schedule) == oracle
    assert schedule.num_rounds == max(rounds for rounds, _, _ in oracle)
    for partition, (rounds, puts, _flushes) in enumerate(oracle):
        round_bytes = [0] * rounds
        for put in puts:
            round_bytes[put[1]] += put[4]
        assert schedule.round_bytes(partition) == round_bytes


def test_ranks_outside_every_partition_are_not_scheduled():
    workload = SyntheticWorkload(12, calls=3, seed=8)
    oracle = [reference.Partition(0, [5, 1, 3], [0, 0, 0]), reference.Partition(1, [8], [0])]
    schedule = build_schedule(workload, reference.join(oracle), 300)
    assert sorted(set(schedule.puts.rank.tolist())) == sorted(
        {rank for rank in (1, 3, 5, 8) if workload.segments_for_rank(rank)}
    )
    assert _array_schedule(schedule) == _oracle_schedule(workload, oracle, 300)


def test_empty_schedule():
    workload = DeclaredWorkload([[(0, 4, 0)], [(0, 8, 16)]])
    schedule = build_schedule(workload, build_partitions(workload, 2), 64)
    assert schedule.rounds.tolist() == [0, 0]
    assert schedule.num_rounds == 0 and schedule.total_bytes() == 0
    assert schedule.rank_rounds() == {} and schedule.flush_rounds() == [[], []]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_segment_table_equals_segments_for_rank(workload):
    table = workload.segment_table()
    rows = list(zip(*(column.tolist() for column in table)))
    assert rows == [
        (s.rank, s.offset, s.nbytes, s.call_index)
        for rank in range(workload.num_ranks)
        for s in workload.segments_for_rank(rank)
    ]
    assert all(type(value) is int for row in rows for value in row)
    assert all(column.dtype == np.int64 for column in table)
    ends = [offset + nbytes for _, offset, nbytes, _ in rows]
    assert workload.file_size() == max(ends, default=0)


def test_payload_seeds_get_python_ints(monkeypatch):
    """A TAPIOCA write seeds every segment once, in one batch, whatever the
    arrays it scheduled from held (``repr(np.int64(5))`` is not ``'5'``)."""
    batches = []
    derive_seeds = workloads_base.derive_seeds

    def recording(base, tokens, *columns):
        batches.append(len(columns[0]))
        return derive_seeds(base, tokens, *columns)

    monkeypatch.setattr(workloads_base, "derive_seeds", recording)
    workload = HACCIOWorkload(16, 20, layout="soa")
    world = SimWorld(ThetaMachine(8), ranks_per_node=2)
    writer = TapiocaIO(world, workload, TapiocaConfig(num_aggregators=2, buffer_size=512))
    world.run(writer.write_program())
    assert batches == [16 * 9]  # one seed per segment, not per put
    assert len(writer.schedule.puts.rank) > 16 * 9
    world.run(TapiocaIO(world, workload, writer.config).read_program())
    assert batches == [16 * 9]  # a read draws nothing
    assert workload.segment_payload(np.int64(3), np.int64(0), 8, np.int64(2)) == (
        workload.payload(Segment(3, 0, 8, 2))
    )
    columns = (np.array([3, 0], np.int64), np.array([2, 1 << 40], np.int64))
    assert rng.derive_seeds(7, ("x",), *columns).tolist() == [
        rng.derive_seed(7, "x", 3, 2),
        rng.derive_seed(7, "x", 0, 1 << 40),
    ]


@pytest.mark.parametrize("nbytes", [*range(18), 8191, 8192, 8193])
def test_payload_equals_the_integers_draw(nbytes):
    workload = IORWorkload(4, transfer_size=64, payload_seed=11)
    for rank, offset in ((0, 0), (3, 5), (2, 1 << 40)):
        segment = Segment(rank, offset, nbytes, call_index=rank)
        assert workload.payload(segment) == reference_schedule.payload(workload, segment)


def _des_workloads():
    """Every workload shape of perfbench's ``des_roundtrip`` cells."""
    for machine in (ThetaMachine(8), ThetaMachine(16), MiraMachine(16), MiraMachine(32)):
        ranks = machine.num_nodes * machine.default_ranks_per_node
        for particles in range(35, 46):
            for layout in ("aos", "soa"):
                yield HACCIOWorkload(ranks, particles, layout=layout)
        for transfer in (2048, 2560, 3072):
            yield IORWorkload(ranks, transfer_size=transfer)


def test_payload_equals_the_integers_draw_on_des_workloads():
    """First, middle and last rank of every DES round-trip workload shape,
    and every segment of seeded synthetic workloads."""
    checked = 0
    for workload in _des_workloads():
        last = workload.num_ranks - 1
        for rank in (0, last // 2, last):
            for segment in workload.segments_for_rank(rank):
                assert workload.payload(segment) == reference_schedule.payload(workload, segment)
                checked += 1
    for seed in range(4):
        workload = SyntheticWorkload(6, calls=4, seed=seed, max_segment_bytes=3000)
        workload.payload_seed = seed
        image = bytearray(workload.file_size())
        for rank in range(workload.num_ranks):
            for segment in workload.segments_for_rank(rank):
                payload = reference_schedule.payload(workload, segment)
                assert workload.payload(segment) == payload
                image[segment.offset : segment.end] = payload
                checked += 1
        assert workload.expected_file_image() == bytes(image)
    assert checked > 1000


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_segment_payloads_equal_the_pcg64_oracle(workload):
    """The batch draw equals one seeded ``PCG64`` per segment on every
    shipped workload shape; the declared one has zero-byte segments."""
    table = workload.segment_table()
    segments = [
        segment
        for rank in range(workload.num_ranks)
        for segment in workload.segments_for_rank(rank)
    ]
    assert workload.segment_payloads(table) == [
        reference_schedule.pcg64_payload(workload, segment) for segment in segments
    ]


def test_segment_payloads_of_odd_rows():
    """Zero-byte rows, ragged lengths, far offsets and a one-row batch."""
    workload = IORWorkload(4, transfer_size=64, payload_seed=3)
    segments = [
        Segment(rank, offset, nbytes, call_index)
        for rank, offset, nbytes, call_index in (
            (0, 0, 0, 0), (1, 5, 1, 2), (2, 1 << 40, 17, 1), (3, 9, 0, 7), (0, 64, 8193, 0),
        )
    ]
    assert workload.segment_payloads(SegmentTable.of(segments)) == [
        reference_schedule.pcg64_payload(workload, segment) for segment in segments
    ]
    assert workload.segment_payloads(SegmentTable.of([])) == []
    assert workload.rank_payloads(0) == {
        segment.offset: reference_schedule.pcg64_payload(workload, segment)
        for segment in workload.segments_for_rank(0)
    }


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_derive_seeds_equals_derive_seed(workload):
    table = workload.segment_table()
    seeds = rng.derive_seeds(
        workload.payload_seed, (workload.name,), table.rank, table.call_index, table.offset
    )
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [
        rng.derive_seed(workload.payload_seed, workload.name, rank, call_index, offset)
        for rank, call_index, offset in zip(
            table.rank.tolist(), table.call_index.tolist(), table.offset.tolist()
        )
    ]


def test_pcg64_states_equal_numpy_seeding():
    """The array seeding starts every stream where ``np.random.PCG64(seed)``
    does; a numpy release that changes its seeding fails here."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    drawn = np.random.default_rng(2017).integers(0, 2**64, 1000, dtype=np.uint64)
    seeds = edges + drawn.tolist()
    states, incs = rng.pcg64_states(np.array(seeds, dtype=np.uint64))
    expected = [np.random.PCG64(seed).state["state"] for seed in seeds]
    assert list(zip(states, incs)) == [(state["state"], state["inc"]) for state in expected]


def test_check_no_overlap_names_the_first_clash():
    workload = DeclaredWorkload([[(10, 1, 0), (4, 1, 30)], [(10, 1, 8)], [(5, 1, 32)]])
    with pytest.raises(
        ValueError, match=r"^segments overlap: rank 0 \[0, 10\) and rank 1 starting at 8$"
    ):
        workloads_base.check_no_overlap(workload)
    workloads_base.check_no_overlap(
        DeclaredWorkload([[(10, 1, 0), (0, 1, 5)], [(10, 1, 10)]])
    )


def test_tapioca_io_reports_the_partitions_it_built():
    """Pset partitioning spreads 3 requested aggregators over 2 Psets as one
    partition each, and the runtime reports those 2, as the model does."""
    machine = MiraMachine(16, pset_size=8)
    world = SimWorld(machine, ranks_per_node=2)
    workload = IORWorkload(32, transfer_size=256)
    config = TapiocaConfig(num_aggregators=3, buffer_size=1024, partition_by="pset")
    runtime = TapiocaIO(world, workload, config)
    assert len(runtime.partitions) == 2
    assert runtime.num_aggregators == 2
    world.run(runtime.write_program())
    assert len(runtime.elected) == runtime.num_aggregators
    mapping = block_mapping(32, 16, 2)
    estimate = model_tapioca(machine, workload, config, ranks_per_node=2, mapping=mapping)
    assert estimate.num_aggregators == runtime.num_aggregators
