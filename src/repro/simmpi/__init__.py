"""A discrete-event simulated MPI runtime.

The paper's library is built on MPI: one-sided communication (RMA ``Put``
into aggregator buffers), fences, ``MPI_Allreduce(MINLOC)`` for the
aggregator election, and non-blocking MPI-IO writes.  No MPI implementation
is available in this reproduction environment, so this package provides a
simulated one that is faithful enough to run the *actual algorithms*
unchanged:

* ranks are coroutines (Python generators) scheduled by a discrete-event
  engine (:mod:`repro.simmpi.engine`);
* communication costs are derived from the machine's interconnect topology
  (hops, latency, link bandwidth), and file costs from the file-system model;
* data really moves: RMA puts copy bytes into window buffers and file writes
  land in :class:`repro.storage.file.SimFile` objects, so end-to-end tests
  can verify byte-exact file contents.

Rank programs are written in "generator MPI" style::

    def program(ctx: RankContext):
        cost = float(ctx.rank % 3)
        winner = yield from ctx.comm.allreduce((cost, ctx.rank), op="minloc")
        yield from ctx.comm.barrier()
        return winner

and executed with :class:`~repro.simmpi.world.SimWorld`.
"""

from repro.simmpi.engine import AllOf, Environment, Event, Process, Timeout
from repro.simmpi.errors import SimMPIError, RankProgramError
from repro.simmpi.request import Request
from repro.simmpi.communicator import Communicator, ReduceOp
from repro.simmpi.rma import Window
from repro.simmpi.file import SimMPIFile
from repro.simmpi.world import RankContext, SimWorld, WorldResult

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "SimMPIError",
    "RankProgramError",
    "Request",
    "Communicator",
    "ReduceOp",
    "Window",
    "SimMPIFile",
    "RankContext",
    "SimWorld",
    "WorldResult",
]
