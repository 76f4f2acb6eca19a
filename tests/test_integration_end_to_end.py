"""Cross-library integration tests.

These exercise TAPIOCA and the ROMIO-style baseline side by side on the same
simulated machine and workload, checking that (a) both produce byte-identical
files — the MPI-IO semantics are preserved by the topology-aware
optimisation — and (b) the qualitative performance relationships the paper
reports also hold in the discrete-event path (not only in the analytic
model).
"""

import pytest

from repro.core.api import Tapioca
from repro.core.config import TapiocaConfig
from repro.core.runtime import TapiocaIO
from repro.iolib.hints import MPIIOHints
from repro.iolib.independent import independent_write_program
from repro.iolib.twophase import TwoPhaseCollectiveIO
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.simmpi.world import SimWorld
from repro.storage.lustre import LustreStripeConfig
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


def run_both(machine, workload, *, buffer_size, num_aggregators, ranks_per_node=2):
    """Run TAPIOCA and the MPI I/O baseline on the same workload; return both."""
    tapioca_world = SimWorld(machine, ranks_per_node=ranks_per_node)
    tapioca = TapiocaIO(
        tapioca_world,
        workload,
        TapiocaConfig(num_aggregators=num_aggregators, buffer_size=buffer_size),
        path="/out/tapioca.dat",
    )
    tapioca_result = tapioca_world.run(tapioca.write_program())
    mpiio_world = SimWorld(machine, ranks_per_node=ranks_per_node)
    mpiio = TwoPhaseCollectiveIO(
        mpiio_world,
        workload,
        MPIIOHints(cb_nodes=num_aggregators, cb_buffer_size=buffer_size),
        path="/out/mpiio.dat",
    )
    mpiio_result = mpiio_world.run(mpiio.write_program())
    return (tapioca, tapioca_result), (mpiio, mpiio_result)


class TestSemanticEquivalence:
    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: IORWorkload(32, transfer_size=3000),
            lambda: HACCIOWorkload(32, particles_per_rank=150, layout="aos"),
            lambda: HACCIOWorkload(32, particles_per_rank=150, layout="soa"),
            lambda: SyntheticWorkload(32, calls=3, seed=13, max_segment_bytes=700),
        ],
    )
    def test_tapioca_and_mpiio_write_identical_files(self, workload_factory):
        machine = MiraMachine(16, pset_size=8)
        workload = workload_factory()
        (_, tapioca_result), (_, mpiio_result) = run_both(
            machine, workload, buffer_size=4096, num_aggregators=4
        )
        tapioca_image = tapioca_result.files.open("/out/tapioca.dat", create=False).as_bytes()
        mpiio_image = mpiio_result.files.open("/out/mpiio.dat", create=False).as_bytes()
        assert tapioca_image == mpiio_image == workload.expected_file_image()

    def test_independent_io_also_equivalent(self):
        machine = generic_cluster(32, nodes_per_leaf=8, num_gateways=2)
        workload = SyntheticWorkload(64, calls=2, seed=3, max_segment_bytes=500)
        world = SimWorld(machine, ranks_per_node=2)
        world.run(independent_write_program(world, workload, path="/out/ind.dat"))
        image = world.files.open("/out/ind.dat", create=False).as_bytes()
        assert image == workload.expected_file_image()


class TestPerformanceRelationships:
    def test_tapioca_not_slower_than_baseline_on_theta(self):
        """The discrete-event path agrees with the paper's direction on Theta."""
        machine = ThetaMachine(8, stripe=LustreStripeConfig(4, 65536))
        workload = HACCIOWorkload(16, particles_per_rank=3000, layout="soa")
        (_, tapioca_result), (_, mpiio_result) = run_both(
            machine, workload, buffer_size=65536, num_aggregators=4
        )
        assert tapioca_result.elapsed <= mpiio_result.elapsed * 1.05

    def test_facade_simulation_and_estimate_agree_on_direction(self):
        """DES and analytic paths agree that more data means more time."""
        machine = ThetaMachine(8)
        config = TapiocaConfig(num_aggregators=4, buffer_size=32768)
        small = Tapioca(machine, config, ranks_per_node=2).declare(
            HACCIOWorkload(16, 500, layout="aos")
        )
        large = Tapioca(machine, config, ranks_per_node=2).declare(
            HACCIOWorkload(16, 5000, layout="aos")
        )
        assert (
            large.simulate_write(path="/out/l.dat").elapsed
            > small.simulate_write(path="/out/s.dat").elapsed
        )
        assert large.estimate_write().elapsed > small.estimate_write().elapsed

    def test_subfiling_partitions_keep_aggregators_within_psets(self):
        machine = MiraMachine(32, pset_size=16)
        workload = HACCIOWorkload(64, particles_per_rank=64, layout="aos")
        world = SimWorld(machine, ranks_per_node=2)
        runtime = TapiocaIO(
            world,
            workload,
            TapiocaConfig(num_aggregators=4, buffer_size=2048, partition_by="pset"),
            path="/out/pset.dat",
        )
        world.run(runtime.write_program())
        for partition_index, aggregator in runtime.elected.items():
            ranks = runtime.partitions.ranks_of(partition_index).tolist()
            aggregator_pset = machine.pset_of_node(world.node_of_rank(aggregator))
            member_psets = {machine.pset_of_node(world.node_of_rank(r)) for r in ranks}
            assert member_psets == {aggregator_pset}
