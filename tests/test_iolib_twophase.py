"""End-to-end tests of the ROMIO-style two-phase collective I/O (DES path).

The key property: whatever the workload, hints and aggregator policy, the
bytes that land in the simulated file must match the workload's expected
image exactly, and a collective read must hand every rank exactly its own
data back.
"""

import hashlib

import pytest

from repro.iolib.hints import MPIIOHints
from repro.iolib.independent import independent_read_program, independent_write_program
from repro.iolib.twophase import TwoPhaseCollectiveIO, _merge_extents
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.simmpi.world import SimWorld
from repro.workloads.base import Workload
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


def write_and_verify(machine, workload, hints, *, ranks_per_node=2, policy="default"):
    """Run a collective write and assert the file image is byte-exact."""
    world = SimWorld(machine, ranks_per_node=ranks_per_node)
    two_phase = TwoPhaseCollectiveIO(
        world, workload, hints, path="/out/test.dat", aggregator_policy=policy
    )
    result = world.run(two_phase.write_program())
    image = result.files.open("/out/test.dat", create=False).as_bytes()
    assert image == workload.expected_file_image()
    assert sum(result.returns) == workload.total_bytes()
    return world, two_phase, result


class TestMergeExtents:
    def test_merges_adjacent_and_overlapping(self):
        assert _merge_extents([(0, 5), (5, 8), (10, 12), (11, 15)]) == [(0, 8), (10, 15)]

    def test_empty(self):
        assert _merge_extents([]) == []


class TestCollectiveWriteCorrectness:
    def test_ior_write_matches_expected_image(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=2048)
        write_and_verify(machine, workload, MPIIOHints(cb_nodes=4, cb_buffer_size=8192))

    def test_hacc_aos_write(self):
        machine = MiraMachine(16, pset_size=8)
        workload = HACCIOWorkload(32, particles_per_rank=200, layout="aos")
        write_and_verify(machine, workload, MPIIOHints(cb_nodes=4, cb_buffer_size=4096))

    def test_hacc_soa_write_multiple_calls(self):
        machine = ThetaMachine(8)
        workload = HACCIOWorkload(16, particles_per_rank=150, layout="soa")
        _, two_phase, _ = write_and_verify(
            machine, workload, MPIIOHints(cb_nodes=4, cb_buffer_size=2048)
        )
        # Per-call aggregation: SoA issues nine collective calls, so the
        # number of flushes is necessarily at least nine per aggregator used.
        assert two_phase.flush_count >= 9

    def test_synthetic_irregular_write(self):
        machine = ThetaMachine(8)
        workload = SyntheticWorkload(16, calls=3, seed=5, max_segment_bytes=600)
        write_and_verify(machine, workload, MPIIOHints(cb_nodes=3, cb_buffer_size=1024))

    def test_single_aggregator(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=512)
        write_and_verify(machine, workload, MPIIOHints(cb_nodes=1, cb_buffer_size=4096))

    def test_more_aggregators_than_data_regions(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=64)
        write_and_verify(machine, workload, MPIIOHints(cb_nodes=16, cb_buffer_size=256))

    def test_rank_order_and_random_policies_also_correct(self):
        machine = MiraMachine(16, pset_size=8)
        workload = IORWorkload(32, transfer_size=1024)
        for policy in ("rank-order", "random"):
            write_and_verify(
                machine,
                workload,
                MPIIOHints(cb_nodes=4, cb_buffer_size=2048),
                policy=policy,
            )

    def test_collective_buffering_disabled_still_correct(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=512)
        write_and_verify(
            machine,
            workload,
            MPIIOHints(cb_nodes=4, collective_buffering=False),
        )

    def test_each_segment_payload_is_drawn_once(self, monkeypatch):
        """A segment cut by file domains into several pieces is drawn once;
        the file image is the one the per-piece draw wrote."""
        draws = []
        draw = Workload.segment_payloads

        def counting(workload, table):
            draws.extend(zip(*(column.tolist() for column in table)))
            return draw(workload, table)

        monkeypatch.setattr(Workload, "segment_payloads", counting)
        workload = HACCIOWorkload(32, particles_per_rank=400, layout="soa")
        world = SimWorld(ThetaMachine(16), ranks_per_node=2)
        two_phase = TwoPhaseCollectiveIO(
            world, workload, MPIIOHints(cb_nodes=4, cb_buffer_size=2048), path="/out/t.dat"
        )
        result = world.run(two_phase.write_program())
        assert len(draws) == len(set(draws)) == 32 * 9
        image = result.files.open("/out/t.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()
        assert hashlib.sha256(image).hexdigest() == (
            "1874b40821fe834e8bbd608f018ceb4e44b2f38e50ca7676102f6c6ed77569fa"
        )

    def test_workload_world_size_mismatch_rejected(self):
        machine = MiraMachine(16, pset_size=16)
        world = SimWorld(machine, ranks_per_node=2)
        workload = IORWorkload(8, transfer_size=128)
        with pytest.raises(Exception):
            TwoPhaseCollectiveIO(world, workload, MPIIOHints())


class TestCollectiveReadCorrectness:
    def _roundtrip(self, machine, workload, hints):
        world = SimWorld(machine, ranks_per_node=2)
        writer = TwoPhaseCollectiveIO(world, workload, hints, path="/out/rw.dat")
        write_result = world.run(writer.write_program())
        read_world = SimWorld(machine, ranks_per_node=2)
        read_world.files = write_result.files
        reader = TwoPhaseCollectiveIO(read_world, workload, hints, path="/out/rw.dat")
        read_result = read_world.run(reader.read_program())
        for rank, received in enumerate(read_result.returns):
            for segment in workload.segments_for_rank(rank):
                if segment.nbytes == 0:
                    continue
                assert received[segment.offset] == workload.payload(segment)

    def test_ior_roundtrip(self):
        self._roundtrip(
            MiraMachine(16, pset_size=16),
            IORWorkload(32, transfer_size=1500),
            MPIIOHints(cb_nodes=4, cb_buffer_size=4096),
        )

    def test_hacc_soa_roundtrip(self):
        self._roundtrip(
            ThetaMachine(8),
            HACCIOWorkload(16, particles_per_rank=80, layout="soa"),
            MPIIOHints(cb_nodes=3, cb_buffer_size=1024),
        )

    def test_synthetic_roundtrip(self):
        self._roundtrip(
            ThetaMachine(8),
            SyntheticWorkload(16, calls=2, seed=9, max_segment_bytes=400),
            MPIIOHints(cb_nodes=5, cb_buffer_size=512),
        )


class TestIndependentIO:
    def test_independent_write_matches_image(self):
        machine = ThetaMachine(8)
        workload = IORWorkload(16, transfer_size=777)
        world = SimWorld(machine, ranks_per_node=2)
        result = world.run(independent_write_program(world, workload, path="/out/ind.dat"))
        image = result.files.open("/out/ind.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    @pytest.mark.parametrize("shared_locks", [False, True])
    def test_disabled_collective_buffering_is_the_independent_write(self, shared_locks):
        # Both run one non-collective write: same file image, same time.
        machine = ThetaMachine(8)
        workload = HACCIOWorkload(16, particles_per_rank=90, layout="soa")

        def run(make_program):
            world = SimWorld(machine, ranks_per_node=2)
            result = world.run(make_program(world))
            image = result.files.open("/out/cb.dat", create=False).as_bytes()
            return result.elapsed, result.returns, image

        hints = MPIIOHints(
            cb_nodes=4, collective_buffering=False, shared_locks=shared_locks
        )
        two_phase = run(
            lambda world: TwoPhaseCollectiveIO(
                world, workload, hints, path="/out/cb.dat"
            ).write_program()
        )
        independent = run(
            lambda world: independent_write_program(
                world, workload, path="/out/cb.dat", shared_locks=shared_locks
            )
        )
        assert two_phase == independent
        assert two_phase[2] == workload.expected_file_image()

    def test_independent_read_returns_payloads(self):
        machine = ThetaMachine(8)
        workload = IORWorkload(16, transfer_size=333)
        world = SimWorld(machine, ranks_per_node=2)
        world.run(independent_write_program(world, workload, path="/out/ind2.dat"))
        world2 = SimWorld(machine, ranks_per_node=2)
        world2.files = world.files
        result = world2.run(independent_read_program(world2, workload, path="/out/ind2.dat"))
        for rank, received in enumerate(result.returns):
            segment = workload.segments_for_rank(rank)[0]
            assert received[segment.offset] == workload.payload(segment)


class TestTimingBehaviour:
    def test_more_data_takes_longer(self):
        machine = ThetaMachine(8)
        hints = MPIIOHints(cb_nodes=4, cb_buffer_size=4096)

        def elapsed(transfer_size):
            world = SimWorld(machine, ranks_per_node=2)
            workload = IORWorkload(16, transfer_size=transfer_size)
            tp = TwoPhaseCollectiveIO(world, workload, hints, path="/out/t.dat")
            return world.run(tp.write_program()).elapsed

        assert elapsed(64 * 1024) > elapsed(1024)

    def test_lock_sharing_speeds_up_writes(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=128 * 1024)

        def elapsed(shared):
            world = SimWorld(machine, ranks_per_node=2)
            tp = TwoPhaseCollectiveIO(
                world,
                workload,
                MPIIOHints(cb_nodes=8, cb_buffer_size=256 * 1024, shared_locks=shared),
                path="/out/locks.dat",
            )
            return world.run(tp.write_program()).elapsed

        assert elapsed(True) <= elapsed(False)
