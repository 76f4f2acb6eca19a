"""Exception types raised by the simulated MPI runtime."""

from __future__ import annotations


class SimMPIError(RuntimeError):
    """Base class for all simulated-MPI errors (bad arguments, misuse)."""


class RankProgramError(SimMPIError):
    """A rank program raised an exception; wraps the original with rank info.

    Attributes:
        rank: the MPI rank whose program failed.
    """

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.__cause__ = original


class DeadlockError(SimMPIError):
    """The event queue drained while rank programs were still blocked.

    This is how the simulator surfaces classic MPI deadlocks (e.g. a barrier
    some rank never reaches).
    """
