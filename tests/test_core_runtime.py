"""End-to-end tests of the TAPIOCA discrete-event runtime (Algorithm 3).

These run the real protocol — election via Allreduce(MINLOC), RMA puts into
double buffers, non-blocking flushes — on small simulated machines and verify
byte-exact file contents, correct reads, and the qualitative behaviours the
paper claims (cross-call aggregation, overlap benefits, placement quality).
"""

import pytest

from repro.core.config import TapiocaConfig
from repro.core.runtime import TapiocaIO
from repro.iolib.hints import MPIIOHints
from repro.iolib.twophase import TwoPhaseCollectiveIO
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.simmpi.world import SimWorld
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload
from reference import cost_model as reference


def run_tapioca_write(machine, workload, config, *, ranks_per_node=2, path="/out/tap.dat"):
    world = SimWorld(machine, ranks_per_node=ranks_per_node)
    runtime = TapiocaIO(world, workload, config, path=path)
    result = world.run(runtime.write_program())
    return world, runtime, result


class TestWriteCorrectness:
    def test_ior_write_matches_expected_image(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=2000)
        config = TapiocaConfig(num_aggregators=4, buffer_size=4096)
        _world, _runtime, result = run_tapioca_write(machine, workload, config)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_hacc_soa_write_matches_expected_image(self):
        machine = ThetaMachine(8)
        workload = HACCIOWorkload(16, particles_per_rank=123, layout="soa")
        config = TapiocaConfig(num_aggregators=4, buffer_size=2048)
        _world, _runtime, result = run_tapioca_write(machine, workload, config)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_hacc_aos_write_on_mira_with_pset_partitions(self):
        machine = MiraMachine(32, pset_size=16)
        workload = HACCIOWorkload(64, particles_per_rank=60, layout="aos")
        config = TapiocaConfig(
            num_aggregators=4, buffer_size=4096, partition_by="pset"
        )
        _world, _runtime, result = run_tapioca_write(machine, workload, config)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_synthetic_irregular_write(self):
        machine = ThetaMachine(8)
        workload = SyntheticWorkload(16, calls=4, seed=21, max_segment_bytes=800)
        config = TapiocaConfig(num_aggregators=3, buffer_size=1000)
        _world, _runtime, result = run_tapioca_write(machine, workload, config)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_no_pipelining_still_correct(self):
        machine = ThetaMachine(8)
        workload = IORWorkload(16, transfer_size=3000)
        config = TapiocaConfig(num_aggregators=4, buffer_size=2048, pipeline_depth=1)
        _world, _runtime, result = run_tapioca_write(machine, workload, config)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_every_placement_strategy_is_correct(self):
        machine = MiraMachine(16, pset_size=8)
        workload = IORWorkload(32, transfer_size=700)
        for strategy in ("topology-aware", "rank-order", "random", "max-volume", "shortest-io"):
            config = TapiocaConfig(
                num_aggregators=4,
                buffer_size=1024,
                placement=strategy,
                placement_seed=3,
            )
            _world, _runtime, result = run_tapioca_write(machine, workload, config)
            image = result.files.open("/out/tap.dat", create=False).as_bytes()
            assert image == workload.expected_file_image(), strategy

    def test_single_aggregator_single_rank_partitions(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(16, transfer_size=128)
        config = TapiocaConfig(num_aggregators=16, buffer_size=64)
        _world, _runtime, result = run_tapioca_write(machine, workload, config, ranks_per_node=1)
        image = result.files.open("/out/tap.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()

    def test_elected_aggregators_belong_to_their_partitions(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=512)
        config = TapiocaConfig(num_aggregators=4, buffer_size=1024)
        _world, runtime, _result = run_tapioca_write(machine, workload, config)
        assert len(runtime.elected) == 4
        for partition_index, aggregator in runtime.elected.items():
            assert aggregator in runtime.partitions.ranks_of(partition_index)

    def test_election_matches_precomputed_placement(self):
        machine = MiraMachine(16, pset_size=16)
        workload = IORWorkload(32, transfer_size=512)
        config = TapiocaConfig(num_aggregators=4, buffer_size=1024)
        _world, runtime, _result = run_tapioca_write(machine, workload, config)
        for partition_index, aggregator in runtime.elected.items():
            assert aggregator == runtime.placement.aggregator_of(partition_index)

    def test_election_values_equal_per_rank_evaluation(self):
        """The batched election costs are each rank's own C1 + C2, bit for bit."""
        machine = MiraMachine(16, pset_size=8)
        workload = SyntheticWorkload(32, calls=3, seed=5, max_segment_bytes=900)
        config = TapiocaConfig(num_aggregators=3, buffer_size=1024)
        world, runtime, _result = run_tapioca_write(machine, workload, config)
        partitions = runtime.partitions
        for index in range(len(partitions)):
            ranks, sizes = partitions.ranks_of(index), partitions.volumes_of(index)
            volumes = dict(zip(ranks.tolist(), sizes.tolist()))
            for rank in volumes:
                cost, _rank = runtime._election_value(rank, index)
                expected = reference.evaluate(machine, world.mapping, rank, volumes)
                assert cost == expected.total

    def test_workload_world_mismatch_rejected(self):
        machine = MiraMachine(16, pset_size=16)
        world = SimWorld(machine, ranks_per_node=2)
        with pytest.raises(Exception):
            TapiocaIO(world, IORWorkload(4, transfer_size=64), TapiocaConfig())


class TestReadCorrectness:
    def _roundtrip(self, machine, workload, config):
        world = SimWorld(machine, ranks_per_node=2)
        writer = TapiocaIO(world, workload, config, path="/out/rw.dat")
        write_result = world.run(writer.write_program())
        read_world = SimWorld(machine, ranks_per_node=2)
        read_world.files = write_result.files
        reader = TapiocaIO(read_world, workload, config, path="/out/rw.dat")
        read_result = read_world.run(reader.read_program())
        for rank, received in enumerate(read_result.returns):
            for segment in workload.segments_for_rank(rank):
                if segment.nbytes == 0:
                    continue
                assert received[segment.offset] == workload.payload(segment)

    def test_ior_roundtrip(self):
        self._roundtrip(
            MiraMachine(16, pset_size=16),
            IORWorkload(32, transfer_size=1800),
            TapiocaConfig(num_aggregators=4, buffer_size=4096),
        )

    def test_hacc_soa_roundtrip(self):
        self._roundtrip(
            ThetaMachine(8),
            HACCIOWorkload(16, particles_per_rank=77, layout="soa"),
            TapiocaConfig(num_aggregators=3, buffer_size=1024),
        )

    def test_roundtrip_without_pipelining(self):
        self._roundtrip(
            ThetaMachine(8),
            IORWorkload(16, transfer_size=1200),
            TapiocaConfig(num_aggregators=4, buffer_size=1024, pipeline_depth=1),
        )


class TestQualitativeBehaviour:
    def test_cross_call_aggregation_fills_buffers_unlike_mpiio(self):
        """The Fig. 2 contrast: TAPIOCA schedules across the nine SoA calls.

        With a buffer large enough to hold several variables' worth of data,
        MPI I/O still flushes once per collective call (nine partially-filled
        buffers), while TAPIOCA drains the same data in far fewer,
        completely-filled rounds.
        """
        machine = ThetaMachine(8)
        workload = HACCIOWorkload(16, particles_per_rank=200, layout="soa")
        buffer_size = 8192
        world_t = SimWorld(machine, ranks_per_node=2)
        tapioca = TapiocaIO(
            world_t,
            workload,
            TapiocaConfig(num_aggregators=4, buffer_size=buffer_size),
            path="/out/t.dat",
        )
        world_t.run(tapioca.write_program())
        # TAPIOCA needed fewer aggregation rounds than the application issued
        # collective calls, and every non-final round moved a full buffer.
        assert tapioca.schedule.num_rounds < workload.num_calls()
        for partition in range(len(tapioca.partitions)):
            round_bytes = tapioca.schedule.round_bytes(partition)
            assert all(b == buffer_size for b in round_bytes[:-1])
        world_m = SimWorld(machine, ranks_per_node=2)
        mpiio = TwoPhaseCollectiveIO(
            world_m,
            workload,
            MPIIOHints(cb_nodes=4, cb_buffer_size=buffer_size),
            path="/out/m.dat",
        )
        world_m.run(mpiio.write_program())
        # The per-call baseline flushed many partially-filled buffers: its
        # average flush is well below the staging buffer size.
        average_flush = workload.total_bytes() / mpiio.flush_count
        assert average_flush < 0.5 * buffer_size
        assert mpiio.flush_count >= workload.num_calls()

    def test_pipelining_does_not_slow_down_io_bound_writes(self):
        machine = ThetaMachine(8)
        workload = IORWorkload(16, transfer_size=64 * 1024)

        def elapsed(depth):
            world = SimWorld(machine, ranks_per_node=2)
            runtime = TapiocaIO(
                world,
                workload,
                TapiocaConfig(num_aggregators=4, buffer_size=32 * 1024, pipeline_depth=depth),
                path="/out/p.dat",
            )
            return world.run(runtime.write_program()).elapsed

        assert elapsed(2) <= elapsed(1) * 1.001

    def test_more_data_takes_longer(self):
        machine = ThetaMachine(8)
        config = TapiocaConfig(num_aggregators=4, buffer_size=16 * 1024)

        def elapsed(particles):
            world = SimWorld(machine, ranks_per_node=2)
            workload = HACCIOWorkload(16, particles_per_rank=particles, layout="aos")
            runtime = TapiocaIO(world, workload, config, path="/out/d.dat")
            return world.run(runtime.write_program()).elapsed

        assert elapsed(2000) > elapsed(100)


class TestElectionAwayFromFirstRank:
    """The DES Allreduce(MINLOC) elects what the placement elects, on skewed
    per-rank volumes where no partition's winner is its first rank."""

    def _roundtrip(self):
        machine = ThetaMachine(8)
        workload = SyntheticWorkload(16, seed=6, max_segment_bytes=4096)
        config = TapiocaConfig(num_aggregators=4, buffer_size=8192)
        world = SimWorld(machine, ranks_per_node=2)
        writer = TapiocaIO(world, workload, config, path="/out/c.dat")
        written = world.run(writer.write_program())
        read_world = SimWorld(machine, ranks_per_node=2)
        read_world.files = written.files
        reader = TapiocaIO(read_world, workload, config, path="/out/c.dat")
        read_world.run(reader.read_program())
        return writer, reader

    def test_allreduce_elects_the_placement(self):
        writer, reader = self._roundtrip()
        winners = [writer.elected[index] for index in range(len(writer.partitions))]
        assert winners == writer.placement.aggregators == [2, 6, 11, 13]
        firsts = writer.partitions.ranks[writer.partitions.offsets[:-1]].tolist()
        assert all(winner != first for winner, first in zip(winners, firsts))
        assert reader.elected == writer.elected
