"""Independent (non-collective) MPI-IO.

The simplest possible baseline: every rank writes/reads its own segments
directly, with no aggregation at all.  It is what an application gets when
collective buffering is disabled (``romio_cb_write = disable``) and is used
in tests and ablations as the lower anchor of the comparison — many small
uncoordinated requests hitting the file system.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.simmpi.engine import Event
from repro.simmpi.file import SimMPIFile
from repro.simmpi.world import RankContext, SimWorld
from repro.workloads.base import Workload


def independent_write_program(
    world: SimWorld,
    workload: Workload,
    *,
    path: str = "/out/independent.dat",
    shared_locks: bool = False,
) -> Callable[[RankContext], Generator[Event, Any, int]]:
    """Build a rank program writing every segment independently.

    Independent writes do not benefit from the collective lock-sharing
    optimisation, hence ``shared_locks=False`` by default.
    """
    file: SimMPIFile = world.open_file(path, shared_locks=shared_locks)

    def program(ctx: RankContext) -> Generator[Event, Any, int]:
        total = 0
        for offset, payload in workload.rank_payloads(ctx.rank).items():
            yield from file.write_at(offset, payload)
            total += len(payload)
        yield from ctx.comm.barrier()
        return total

    return program


def independent_read_program(
    world: SimWorld,
    workload: Workload,
    *,
    path: str = "/out/independent.dat",
) -> Callable[[RankContext], Generator[Event, Any, dict[int, bytes]]]:
    """Build a rank program reading every segment independently.

    Returns, per rank, a mapping ``{segment.offset: bytes read}``.
    """
    file: SimMPIFile = world.open_file(path)

    def program(ctx: RankContext) -> Generator[Event, Any, dict[int, bytes]]:
        result: dict[int, bytes] = {}
        for segment in workload.segments_for_rank(ctx.rank):
            if segment.nbytes == 0:
                continue
            data = yield from file.read_at(segment.offset, segment.nbytes)
            result[segment.offset] = data
        yield from ctx.comm.barrier()
        return result

    return program
