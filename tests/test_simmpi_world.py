"""Tests for SimWorld construction, mappings, timing queries and failure handling."""

import pytest

from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.simmpi.communicator import Communicator
from repro.simmpi.errors import RankProgramError, SimMPIError
from repro.simmpi.world import INTRA_NODE_LATENCY, SimWorld
from repro.topology.mapping import random_mapping, round_robin_mapping


class TestConstruction:
    def test_defaults_use_whole_machine(self):
        machine = MiraMachine(16, pset_size=16)
        world = SimWorld(machine, ranks_per_node=2)
        assert world.num_nodes == 16
        assert world.num_ranks == 32
        assert world.comm_world.size == 32

    def test_subset_of_nodes(self):
        machine = MiraMachine(16, pset_size=16)
        world = SimWorld(machine, num_nodes=4, ranks_per_node=2)
        assert world.num_ranks == 8

    def test_too_many_nodes_rejected(self):
        machine = MiraMachine(16, pset_size=16)
        with pytest.raises(SimMPIError):
            SimWorld(machine, num_nodes=64, ranks_per_node=2)

    def test_too_many_ranks_per_node_rejected(self):
        machine = ThetaMachine(8)
        with pytest.raises(ValueError):
            SimWorld(machine, ranks_per_node=10_000)

    def test_explicit_mapping(self):
        machine = ThetaMachine(8)
        mapping = round_robin_mapping(16, 8, 2)
        world = SimWorld(machine, ranks_per_node=2, mapping=mapping)
        assert world.node_of_rank(1) == 1
        assert world.node_of_rank(9) == 1

    def test_random_mapping_world_runs(self):
        machine = ThetaMachine(8)
        mapping = random_mapping(16, 8, 2, seed=4)
        world = SimWorld(machine, ranks_per_node=2, mapping=mapping)

        def program(ctx):
            nodes = yield from ctx.comm.allgather(ctx.comm.node)
            return nodes

        result = world.run(program)
        assert result.returns[0] == [mapping.node(r) for r in range(16)]


class TestTimingQueries:
    def test_intra_node_transfer_uses_memory_bandwidth(self):
        machine = ThetaMachine(8)
        world = SimWorld(machine, ranks_per_node=2)
        expected = INTRA_NODE_LATENCY + 1e6 / machine.node_spec.main_memory.bandwidth
        assert world.transfer_time(3, 3, 1e6) == pytest.approx(expected)

    def test_inter_node_transfer_uses_topology(self):
        machine = ThetaMachine(8)
        world = SimWorld(machine, ranks_per_node=2)
        assert world.transfer_time(0, 7, 1e6) == pytest.approx(
            machine.topology.transfer_time(0, 7, 1e6)
        )

    def test_negative_bytes_rejected(self):
        world = SimWorld(ThetaMachine(8), ranks_per_node=2)
        with pytest.raises(SimMPIError):
            world.transfer_time(0, 1, -5)

    def test_collective_step_cost_grows_with_payload(self):
        world = SimWorld(ThetaMachine(8), ranks_per_node=2)
        small = world.collective_step_cost(world.comm_world, 8)
        large = world.collective_step_cost(world.comm_world, 10**7)
        assert large > small > 0

    def test_collective_cost_never_inherits_a_freed_communicators_hops(self):
        """A communicator allocated where a freed one lived is priced on its
        own nodes, not on the mean hop count the freed one left behind."""
        machine = ThetaMachine(64)
        spread = range(0, 1024, 64)
        fresh = SimWorld(machine)
        expected = fresh.collective_step_cost(Communicator(fresh, spread), 0)
        world = SimWorld(machine)
        reused = False
        # CPython hands a freed object's address to the next allocation of
        # the same size; retry until the spread communicator lands there.
        for _ in range(50):
            one_node = Communicator(world, range(16))
            assert world.collective_step_cost(one_node, 0) < expected
            address = id(one_node)
            del one_node
            comm = Communicator(world, spread)
            reused = id(comm) == address
            assert world.collective_step_cost(comm, 0) == expected
            if reused:
                break
            del comm
        assert reused, "no communicator reused a freed one's address"


class TestExecution:
    def test_per_rank_kwargs(self):
        world = SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=1)

        def program(ctx, scale=1):
            yield ctx.compute(0.0)
            return ctx.rank * scale

        result = world.run(
            program,
            program_kwargs={"scale": 2},
            per_rank_kwargs=lambda rank: {"scale": 10} if rank == 0 else {},
        )
        assert result.returns[0] == 0
        assert result.returns[1] == 2

    def test_failing_rank_reports_its_rank(self):
        world = SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=1)

        def program(ctx):
            yield ctx.compute(0.001)
            if ctx.rank == 3:
                raise RuntimeError("injected failure")
            return "ok"

        with pytest.raises(RankProgramError) as excinfo:
            world.run(program)
        assert excinfo.value.rank == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_world_result_bandwidth(self):
        world = SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=1)

        def program(ctx):
            yield ctx.compute(0.5)
            return None

        result = world.run(program)
        assert result.elapsed == pytest.approx(0.5)
        assert result.bandwidth(1e9) == pytest.approx(2e9)

    def test_bound_comm_properties(self):
        world = SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=2)

        def program(ctx):
            yield ctx.compute(0.0)
            return (
                ctx.comm.rank,
                ctx.comm.world_rank,
                ctx.comm.size,
                ctx.comm.node,
                ctx.comm.node_of(0),
            )

        result = world.run(program)
        rank, world_rank, size, node, node0 = result.returns[5]
        assert rank == world_rank == 5
        assert size == 32
        assert node == world.node_of_rank(5)
        assert node0 == world.node_of_rank(0)
