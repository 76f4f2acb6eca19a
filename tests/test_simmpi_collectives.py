"""Tests for the simulated MPI communicator's collectives."""

import pytest

from repro.machine.mira import MiraMachine
from repro.simmpi.communicator import ReduceOp
from repro.simmpi.errors import DeadlockError, RankProgramError, SimMPIError
from repro.simmpi.world import SimWorld


@pytest.fixture
def world() -> SimWorld:
    return SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=2)


class TestReduceOp:
    def test_minloc(self):
        pairs = [(3.0, 0), (1.0, 1), (1.0, 2), (7.0, 3)]
        assert ReduceOp.combine("minloc", pairs) == (1.0, 1)

    def test_minloc_requires_pairs(self):
        with pytest.raises(SimMPIError):
            ReduceOp.combine("minloc", [(1.0, 2, 3)])

    def test_unknown_op(self):
        with pytest.raises(SimMPIError):
            ReduceOp.combine("xor", [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(SimMPIError):
            ReduceOp.combine("minloc", [])

    def test_minloc_accepts_list_pairs(self):
        # A pair that crossed a serialisation boundary arrives as a list.
        assert ReduceOp.combine("minloc", [[2.0, 0], [0.5, 3]]) == (0.5, 3)


class TestCollectives:
    def test_allgather_and_barrier(self, world):
        def program(ctx):
            values = yield from ctx.comm.allgather(ctx.rank * 10)
            yield from ctx.comm.barrier()
            return values

        result = world.run(program)
        expected = [r * 10 for r in range(world.num_ranks)]
        assert all(value == expected for value in result.returns)
        assert result.elapsed > 0

    def test_allreduce_minloc_election(self, world):
        def program(ctx):
            cost = float((ctx.rank * 7) % 5)
            winner = yield from ctx.comm.allreduce((cost, ctx.rank), op="minloc")
            return winner

        result = world.run(program)
        costs = [(float((r * 7) % 5), r) for r in range(world.num_ranks)]
        expected = min(costs)
        assert all(value == expected for value in result.returns)

    def test_allreduce_defaults_to_minloc(self, world):
        def program(ctx):
            winner = yield from ctx.comm.allreduce((float(ctx.num_ranks - ctx.rank), ctx.rank))
            return winner

        result = world.run(program)
        last = world.num_ranks - 1
        assert result.returns == [(1.0, last)] * world.num_ranks

    @pytest.mark.parametrize("op", ["sum", "max", "maxloc"])
    def test_an_operation_no_protocol_calls_fails_every_participant(self, world, op):
        def program(ctx):
            try:
                yield from ctx.comm.allreduce((1.0, ctx.rank), op=op)
            except SimMPIError as error:
                return str(error)
            return "passed"

        result = world.run(program)
        assert result.returns == [f"unknown reduction operation {op!r}"] * world.num_ranks

    def test_allgather_orders_by_rank_not_by_arrival(self, world):
        # Higher ranks arrive first; the gathered list is still in rank order.
        def program(ctx):
            yield ctx.env.timeout((ctx.num_ranks - ctx.rank) * 1e-3)
            values = yield from ctx.comm.allgather(ctx.rank)
            return values

        result = world.run(program)
        assert result.returns == [list(range(world.num_ranks))] * world.num_ranks

    def test_every_rank_resumes_at_the_last_arrival_plus_the_cost(self, world):
        def program(ctx):
            yield ctx.env.timeout(ctx.rank * 1e-3)
            yield from ctx.comm.barrier()
            return ctx.env.now

        result = world.run(program)
        last_arrival = (world.num_ranks - 1) * 1e-3
        cost = world.comm_world._collective_cost(0)
        assert cost > 0
        assert result.returns == [last_arrival + cost] * world.num_ranks

    def test_a_single_rank_communicator_costs_nothing(self, world):
        def program(ctx):
            alone = yield from ctx.comm.split(ctx.rank)
            before = ctx.env.now
            yield from alone.barrier()
            values = yield from alone.allgather(ctx.rank)
            winner = yield from alone.allreduce((1.0, alone.rank))
            return alone.size, ctx.env.now - before, values, winner

        result = world.run(program)
        assert result.returns == [
            (1, 0.0, [rank], (1.0, 0)) for rank in range(world.num_ranks)
        ]

    def test_sibling_communicators_order_their_collectives_independently(self, world):
        # Each half of a split calls a different collective sequence; only
        # calls within one communicator must match.
        def program(ctx):
            half = yield from ctx.comm.split(ctx.rank % 2)
            if ctx.rank % 2 == 0:
                values = yield from half.allgather(ctx.rank)
                yield from half.barrier()
            else:
                yield from half.barrier()
                values = yield from half.allgather(ctx.rank)
            return values

        result = world.run(program)
        evens = list(range(0, world.num_ranks, 2))
        odds = list(range(1, world.num_ranks, 2))
        for rank, values in enumerate(result.returns):
            assert values == (evens if rank % 2 == 0 else odds)

    def test_a_split_of_a_split_maps_back_to_world_ranks(self, world):
        def program(ctx):
            half = yield from ctx.comm.split(ctx.rank % 2)
            quarter = yield from half.split(half.rank % 2)
            members = yield from quarter.allgather(quarter.world_rank)
            return members

        result = world.run(program)
        for rank, members in enumerate(result.returns):
            assert rank in members
            assert members == [r for r in range(world.num_ranks) if r % 4 == rank % 4]

    def test_create_window_gives_every_rank_one_window_of_its_own_size(self, world):
        def program(ctx):
            size = 64 * ctx.rank if ctx.rank % 3 == 0 else 0
            window = yield from ctx.comm.create_window(size)
            return window, len(window.buffer(ctx.rank))

        result = world.run(program)
        windows = {id(window) for window, _ in result.returns}
        assert len(windows) == 1
        for rank, (_, size) in enumerate(result.returns):
            assert size == (64 * rank if rank % 3 == 0 else 0)

    def test_malformed_minloc_pair_fails_every_participant(self, world):
        # The last arrival's result builder raises: the collective fails
        # every rank instead of leaving the others blocked.
        def program(ctx):
            value = (1.0, 2, 3) if ctx.rank == 0 else (1.0, ctx.rank)
            try:
                yield from ctx.comm.allreduce(value, op="minloc")
            except SimMPIError:
                return "failed"
            return "passed"

        result = world.run(program)
        assert result.returns == ["failed"] * world.num_ranks

        def unhandled(ctx):
            value = (1.0, 2, 3) if ctx.rank == 0 else (1.0, ctx.rank)
            yield from ctx.comm.allreduce(value, op="minloc")

        with pytest.raises(RankProgramError) as excinfo:
            SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=2).run(unhandled)
        assert excinfo.value.rank == 0
        assert "pairs" in str(excinfo.value)

    def test_unmatched_barrier_deadlocks(self, world):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()  # nobody else enters
            return None

        with pytest.raises(DeadlockError):
            world.run(program)

    def test_out_of_range_world_rank_rejected(self, world):
        with pytest.raises(SimMPIError, match="out of range"):
            world.comm_world.world_rank(world.num_ranks)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.raw.world_rank(9999)
            yield from ctx.comm.barrier()

        with pytest.raises(RankProgramError):
            world.run(program)

    def test_collective_name_mismatch_detected(self, world):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier()
            else:
                yield from ctx.comm.allgather(1)

        with pytest.raises((RankProgramError, DeadlockError)):
            world.run(program)

    def test_split_groups_by_color(self, world):
        def program(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            members = yield from sub.allgather(ctx.rank)
            return sorted(members)

        result = world.run(program)
        evens = [r for r in range(world.num_ranks) if r % 2 == 0]
        odds = [r for r in range(world.num_ranks) if r % 2 == 1]
        for rank, members in enumerate(result.returns):
            assert members == (evens if rank % 2 == 0 else odds)

    def test_split_key_reorders_ranks(self, world):
        def program(ctx):
            # Reverse ordering within the single colour.
            sub = yield from ctx.comm.split(0, key=-ctx.rank)
            return sub.rank

        result = world.run(program)
        # World rank N-1 has the smallest key so becomes sub-rank 0.
        assert result.returns[world.num_ranks - 1] == 0
        assert result.returns[0] == world.num_ranks - 1
