"""The lean event path of the simulator: shared collective completions,
fence pass-through and its bundles, waits on failed or already-completed
requests, and the per-round schedule index.  Exact simulated times are
pinned separately in ``test_simmpi_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import build_schedule
from repro.core.config import TapiocaConfig
from repro.core.partitioning import build_partitions
from repro.core.runtime import TapiocaIO
from repro.machine.theta import ThetaMachine
from repro.simmpi.engine import Environment
from repro.simmpi.errors import DeadlockError, RankProgramError, SimMPIError
from repro.simmpi.request import Request
from repro.simmpi.world import SimWorld
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload


@pytest.fixture
def world():
    return SimWorld(ThetaMachine(8), ranks_per_node=1)


def finished(env, value):
    """A request whose process returns ``value`` at its bootstrap."""

    def program():
        return value
        yield

    return Request(env.process(program()))


class TestWaitAll:
    def test_a_failed_child_fails_the_wait(self):
        env = Environment()

        def broken():
            yield env.timeout(1)
            raise OSError("disk gone")

        def waiter():
            requests = [Request(env.process(broken())), finished(env, 7)]
            values = yield from Request.wait_all(env, requests)
            return values

        process = env.process(waiter())
        env.run()
        assert not process.ok
        assert isinstance(process.value, OSError)
        assert str(process.value) == "disk gone"

    def test_the_first_failure_wins(self):
        env = Environment()

        def broken(delay, message):
            yield env.timeout(delay)
            raise OSError(message)

        def waiter():
            late = Request(env.process(broken(2, "late")))
            early = Request(env.process(broken(1, "early")))
            yield from Request.wait_all(env, [late, early])

        process = env.process(waiter())
        env.run()
        assert str(process.value) == "early"

    def test_a_failed_tapioca_flush_fails_the_run(self):
        world = SimWorld(ThetaMachine(8), ranks_per_node=2)
        workload = IORWorkload(16, transfer_size=1500)
        runtime = TapiocaIO(world, workload, TapiocaConfig(num_aggregators=4, buffer_size=1024))

        def disk_gone(offset, data):
            raise OSError("disk gone")

        runtime.file.simfile.write = disk_gone
        with pytest.raises(RankProgramError) as excinfo:
            world.run(runtime.write_program())
        assert isinstance(excinfo.value.__cause__, OSError)
        assert excinfo.value.rank in runtime.placement.aggregators


class TestResume:
    def test_waiting_on_many_completed_requests_does_not_recurse(self):
        env = Environment()

        def program():
            requests = [finished(env, i) for i in range(5000)]
            yield env.timeout(1.0)  # every completion is processed by now
            total = 0
            for request in requests:
                total += yield from request.wait()
            return total

        process = env.process(program())
        env.run()
        assert process.ok
        assert process.value == sum(range(5000))


class TestSharedCompletion:
    def test_a_collective_costs_three_heap_entries_whatever_its_size(self):
        def events_for(num_nodes, barriers):
            world = SimWorld(ThetaMachine(num_nodes), ranks_per_node=1)

            def program(ctx):
                for _ in range(barriers):
                    yield from ctx.comm.barrier()

            world.run(program)
            return world.env.events_processed

        # One bootstrap and one completion entry per rank, three per barrier.
        for num_nodes in (4, 8):
            assert events_for(num_nodes, 5) - events_for(num_nodes, 0) == 15

    def test_the_release_keeps_the_slots_of_a_release_process(self, world):
        """A collective is released by an entry at the arrival time that
        schedules one at ``now + cost``, like a release process's bootstrap
        and timeout: an event scheduled at ``now + cost`` in between, and
        the zero-delay event it schedules in turn, run before the release."""
        cost = world.comm_world._collective_cost(0)
        order = []

        def watcher():
            yield world.env.timeout(0)  # runs after every rank has arrived
            yield world.env.timeout(cost)
            yield world.env.timeout(0)
            order.append("watcher")

        def program(ctx):
            yield from ctx.comm.barrier()
            order.append(ctx.rank)

        world.env.process(watcher())
        world.run(program)
        assert order == ["watcher", *range(world.num_ranks)]


def _fence_program(counts_for_rank):
    """Ranks fence a shared window, passing through ``counts`` fences per call."""

    def program(ctx):
        window = yield from ctx.comm.create_window(16 if ctx.rank == 0 else 0)
        for count in counts_for_rank(ctx.rank):
            if count == "put":
                yield from ctx.comm.put(window, bytes([ctx.rank]), 0, ctx.rank)
            else:
                yield from ctx.comm.fence(window, count)
        return ctx.env.now

    return program


class TestPassThrough:
    def test_pass_through_equals_separate_fences(self):
        def busy(rank):
            return [1, "put", 1, 1, "put", 1, 1]

        def idle_ranks_fence_one_by_one(rank):
            return busy(rank) if rank < 2 else [1] * 5

        def idle_ranks_pass_through(rank):
            return busy(rank) if rank < 2 else [5]

        def run(counts):
            world = SimWorld(ThetaMachine(8), ranks_per_node=1)
            result = world.run(_fence_program(counts))
            return [t.hex() for t in result.returns], world.env.events_processed

        separate, separate_events = run(idle_ranks_fence_one_by_one)
        through, through_events = run(idle_ranks_pass_through)
        assert through == separate
        # Passing through changes no heap entry: only generator resumes go.
        assert through_events == separate_events

    def test_count_must_be_positive(self, world):
        with pytest.raises(RankProgramError, match="count must be >= 1"):
            world.run(_fence_program(lambda rank: [0]))

    def test_collective_mismatch_is_still_reported(self, world):
        def program(ctx):
            window = yield from ctx.comm.create_window(0)
            if ctx.rank == 0:
                yield from ctx.comm.fence(window)
                yield from ctx.comm.allreduce(1)
            else:
                yield from ctx.comm.fence(window, 3)

        with pytest.raises(SimMPIError, match="collective mismatch"):
            world.run(program)

    def test_a_rank_failing_mid_pass_through_is_reported(self, world):
        def program(ctx):
            window = yield from ctx.comm.create_window(0)
            if ctx.rank == 5:
                yield from ctx.comm.fence(window)
                raise RuntimeError("injected failure")
            yield from ctx.comm.fence(window, 4)

        with pytest.raises(RankProgramError) as excinfo:
            world.run(program)
        assert excinfo.value.rank == 5
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_a_blocked_pass_through_names_the_stuck_ranks(self, world):
        def program(ctx):
            window = yield from ctx.comm.create_window(0)
            yield from ctx.comm.fence(window, 3 if ctx.rank in (2, 6) else 2)

        with pytest.raises(DeadlockError, match="rank2, rank6$"):
            world.run(program)


def _bundle_world_run(counts_for_rank, one_by_one, probe=None):
    """Run a fence script on 8 ranks; returns ``(record, events processed)``.

    Rank ``r`` first sleeps ``(8 - r) % 8`` µs, so ranks 7..1 arrive at the
    first fence in that order after rank 0.  ``record`` lists ``(rank, now)``
    after every call of the script (a pass-through counts as one call even
    when run fence by fence) and every ``(name, now)`` the probe appends.
    """
    world = SimWorld(ThetaMachine(8), ranks_per_node=1)
    record = []

    def program(ctx):
        window = yield from ctx.comm.create_window(64 if ctx.rank == 0 else 0)
        yield ctx.env.timeout(((8 - ctx.rank) % 8) * 1e-6)
        for step, count in enumerate(counts_for_rank(ctx.rank)):
            if probe is not None:
                probe(ctx, step, record)
            if count == "put":
                yield from ctx.comm.put(window, bytes([ctx.rank]), 0, 8 * ctx.rank + step % 8)
            else:
                calls = [1] * count if one_by_one else [count]
                for fences in calls:
                    yield from ctx.comm.fence(window, fences)
            record.append((ctx.rank, ctx.env.now.hex()))

    world.run(program)
    return record, world.env.events_processed


class TestBundles:
    """Bundled pass-through ranks against the same fences passed one by one.

    The pinned records were taken from the engine that entered every
    pass-through rank into every barrier separately.
    """

    SCRIPTS = {
        0: [1, "put", 1, 1, "put", 1, 1, 1, 1, 1],
        1: [2, "put", 6],
        2: [8],
        3: [3, "put", 5],
        4: [1, 1, "put", 6],
        5: [5, 3],
        6: [4, "put", 1, 3],
        7: [7, 1],
    }
    #: Who resumed after each call of SCRIPTS, in order.
    RESUME_ORDER = [
        0, 4, 0, 4, 1, 0, 1, 4, 3, 0, 3, 0, 6, 0, 6, 5, 0, 6, 0, 7, 0, 7, 5, 2, 1, 4, 3, 0, 6,
    ]

    #: Who resumed, and when the probe ran, around the bundle's releases.
    PROBE_ORDER = [0, "probe", "probe", 0, 0, 7, 6, 5, 4, 3, 2, 1]

    def test_runs_ending_at_different_barriers_resume_in_arrival_order(self):
        bundled = _bundle_world_run(self.SCRIPTS.get, one_by_one=False)
        separate = _bundle_world_run(self.SCRIPTS.get, one_by_one=True)
        assert bundled[0] == separate[0]
        assert bundled[1] == separate[1]
        assert [rank for rank, _now in bundled[0]] == self.RESUME_ORDER

    def test_a_mismatch_mid_bundle_fails_every_member_in_arrival_order(self):
        def run(one_by_one):
            world = SimWorld(ThetaMachine(8), ranks_per_node=1)
            failures = []

            def program(ctx):
                window = yield from ctx.comm.create_window(0)
                if ctx.rank:
                    yield ctx.env.timeout((8 - ctx.rank) * 1e-6)
                try:
                    if ctx.rank == 0:
                        yield from ctx.comm.fence(window)
                        yield from ctx.comm.allreduce((0.0, 0))
                    else:
                        for count in [1] * 3 if one_by_one else [3]:
                            yield from ctx.comm.fence(window, count)
                except SimMPIError as exc:
                    failures.append((ctx.rank, ctx.env.now.hex(), str(exc)))

            with pytest.raises(DeadlockError, match="blocked processes: rank0$"):
                world.run(program)
            return failures

        bundled = run(one_by_one=False)
        assert bundled == run(one_by_one=True)
        assert [rank for rank, _now, _message in bundled] == [7, 6, 5, 4, 3, 2, 1]
        assert len({now for _rank, now, _message in bundled}) == 1
        for rank, _now, message in bundled:
            assert message == (
                "collective mismatch on 'MPI_COMM_WORLD': rank "
                f"{rank} called 'barrier' while others called 'allreduce:minloc'"
            )

    def test_a_bundle_arriving_last_releases_in_the_same_slot(self):
        """Rank 0 fences one by one and arrives first at every barrier, so
        the bundle of ranks 1..7 is the last arrival of barriers 2 and 3.
        Just before entering barrier 2, rank 0 starts a probe that mimics a
        release: it waits the barrier's cost, then a zero delay.  Its
        entries interleave with the release's at both timestamps, so the
        probe's place among the resumes shows the slots the release took."""

        def scripts(rank):
            return [1, 1, 1] if rank == 0 else [3]

        def probe(ctx, step, record):
            if ctx.rank != 0 or step != 1:
                return
            env = ctx.env
            cost = ctx.comm.raw._collective_cost(0)

            def watcher():
                yield env.timeout(cost)
                record.append(("probe", env.now.hex()))
                yield env.timeout(0)
                record.append(("probe", env.now.hex()))

            env.process(watcher())

        bundled = _bundle_world_run(scripts, one_by_one=False, probe=probe)
        separate = _bundle_world_run(scripts, one_by_one=True, probe=probe)
        assert bundled == separate
        assert [who for who, _now in bundled[0]] == self.PROBE_ORDER


class TestScheduleIndex:
    def test_rounds_by_rank_indexes_every_put(self):
        workload = HACCIOWorkload(16, particles_per_rank=37, layout="soa")
        partitions = build_partitions(workload, 3)
        schedule = build_schedule(workload, partitions, 700)
        puts = schedule.puts
        indexed = []
        for rank, rounds in schedule.rank_rounds().items():
            assert list(rounds) == sorted(rounds)
            for round_index, pieces in rounds.items():
                assert pieces
                indexed += [(rank, round_index, *piece) for piece in pieces]
        fields = (puts.rank, puts.round, puts.segment, puts.segment_offset, puts.nbytes,
                  puts.buffer_offset)
        assert sorted(indexed) == sorted(zip(*(field.tolist() for field in fields)))
        flush_rounds = schedule.flush_rounds()
        assert [len(rounds) for rounds in flush_rounds] == schedule.rounds.tolist()
        flushes = schedule.flushes
        for partition, rounds in enumerate(flush_rounds):
            start, stop = schedule.flush_offsets[partition : partition + 2].tolist()
            assert [(r, *extent) for r, extents in enumerate(rounds) for extent in extents] == list(
                zip(*(field[start:stop].tolist() for field in flushes))
            )
