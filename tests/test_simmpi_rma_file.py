"""Tests for RMA windows, non-blocking requests and simulated MPI-IO files."""

import numpy as np
import pytest

from repro.machine.mira import MiraMachine
from repro.simmpi.errors import RankProgramError
from repro.simmpi.request import Request
from repro.simmpi.world import SimWorld
from repro.storage.gpfs import GPFSModel


@pytest.fixture
def world() -> SimWorld:
    return SimWorld(MiraMachine(16, pset_size=16), ranks_per_node=2)


class TestWindows:
    def test_put_lands_in_target_buffer(self, world):
        def program(ctx):
            size = 1024 if ctx.rank == 0 else 0
            window = yield from ctx.comm.create_window(size)
            yield from ctx.comm.fence(window)
            data = bytes([ctx.rank]) * 16
            yield from ctx.comm.put(window, data, 0, ctx.rank * 16)
            yield from ctx.comm.fence(window)
            if ctx.rank == 0:
                return bytes(window.buffer(0)[: ctx.comm.size * 16])
            return None

        result = world.run(program)
        target = result.returns[0]
        for rank in range(world.num_ranks):
            assert target[rank * 16 : (rank + 1) * 16] == bytes([rank]) * 16

    def test_get_reads_remote_buffer(self, world):
        def program(ctx):
            size = 64 if ctx.rank == 0 else 0
            window = yield from ctx.comm.create_window(size)
            if ctx.rank == 0:
                window.buffer(0)[:] = np.arange(64, dtype=np.uint8)
            yield from ctx.comm.fence(window)
            data = yield from window.get(ctx.rank, 0, 8, 4)
            return data

        result = world.run(program)
        assert all(value == bytes([8, 9, 10, 11]) for value in result.returns)

    def test_put_overflow_rejected(self, world):
        def program(ctx):
            window = yield from ctx.comm.create_window(8)
            yield from ctx.comm.put(window, b"0123456789", 0, 0)

        with pytest.raises(RankProgramError):
            world.run(program)

    def test_put_accounting(self, world):
        def program(ctx):
            window = yield from ctx.comm.create_window(1024 if ctx.rank == 0 else 0)
            yield from ctx.comm.fence(window)
            yield from ctx.comm.put(window, b"abcd", 0, 4 * ctx.rank)
            yield from ctx.comm.fence(window)
            return window

        result = world.run(program)
        window = result.returns[0]
        assert window.put_count == world.num_ranks
        assert window.bytes_put == 4 * world.num_ranks


class TestRequests:
    def test_wait_all_empty(self, world):
        def program(ctx):
            values = yield from Request.wait_all(ctx.env, [])
            return values

        assert world.run(program).returns[0] == []

    def test_completed_request(self, world):
        def program(ctx):
            request = ctx.world.open_file("/out/done.bin").iwrite_at(ctx.rank * 4, b"done")
            assert not request.complete
            yield ctx.env.timeout(1.0)
            assert request.complete
            value = yield from request.wait()
            return value

        assert world.run(program).returns[0] == 4


class TestSimMPIFile:
    def test_blocking_write_and_read(self, world):
        def program(ctx):
            handle = ctx.world.open_file("/out/data.bin")
            payload = np.full(64, ctx.rank, dtype=np.uint8)
            yield from handle.write_at(ctx.rank * 64, payload)
            yield from ctx.comm.barrier()
            data = yield from handle.read_at(ctx.rank * 64, 64)
            return data

        result = world.run(program)
        for rank, data in enumerate(result.returns):
            assert data == bytes([rank]) * 64
        stored = result.files.open("/out/data.bin", create=False)
        assert stored.size == world.num_ranks * 64

    def test_nonblocking_write_overlaps(self, world):
        def program(ctx):
            handle = ctx.world.open_file("/out/nb.bin")
            request = handle.iwrite_at(ctx.rank * 8, bytes(8))
            # The request may not be complete immediately...
            yield ctx.env.timeout(0.0)
            nbytes = yield from request.wait()
            return nbytes

        result = world.run(program)
        assert all(value == 8 for value in result.returns)

    def test_iwrite_captures_buffer_at_submission(self, world):
        def program(ctx):
            if ctx.rank != 0:
                return b""
            handle = ctx.world.open_file("/out/capture.bin")
            buffer = bytearray(b"AAAA")
            request = handle.iwrite_at(0, buffer)
            buffer[:] = b"BBBB"  # mutate after submission
            yield from request.wait()
            data = yield from handle.read_at(0, 4)
            return data

        result = world.run(program)
        assert result.returns[0] == b"AAAA"

    def test_open_same_path_returns_same_handle(self, world):
        assert world.open_file("/x") is world.open_file("/x")

    def test_write_time_grows_with_size(self):
        machine = MiraMachine(16, pset_size=16)

        def run(nbytes):
            world = SimWorld(machine, ranks_per_node=1)

            def program(ctx):
                handle = ctx.world.open_file("/out/t.bin")
                yield from handle.write_at(0, bytes(nbytes))
                return None

            return world.run(program).elapsed

        assert run(64 * 1024 * 1024) > run(1024)

    def test_explicit_filesystem_override(self, world):
        slow = GPFSModel(num_io_nodes=1, per_ion_bandwidth=1e6)
        handle = world.open_file("/out/slow.bin", filesystem=slow)
        assert handle.filesystem is slow
