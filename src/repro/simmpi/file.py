"""Simulated MPI-IO files.

A :class:`SimMPIFile` couples a real byte store
(:class:`repro.storage.file.SimFile`) with a file-system performance model:
writes and reads land for real — so tests can verify layouts byte-for-byte —
while the calling rank's clock advances by the modelled operation time.

Both blocking (``write_at`` / ``read_at``) and non-blocking (``iwrite_at``)
operations are provided.  The non-blocking variants are what TAPIOCA's
``iFlush`` uses to overlap the I/O phase with the next aggregation round.

Concurrency is modelled by tracking the number of in-flight operations on
the file: an operation's duration is computed with the file-system model's
aggregate-bandwidth curve evaluated at the concurrency observed when the
operation starts.  This first-order approximation keeps the discrete-event
path simple; the flow-level model in :mod:`repro.perfmodel` handles the
large-scale contention analysis.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.simmpi.engine import Event
from repro.simmpi.request import Request
from repro.storage.base import FileSystemModel
from repro.storage.file import SimFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.world import SimWorld


class SimMPIFile:
    """An open simulated file shared by the ranks of a world.

    Args:
        world: the owning simulation world.
        simfile: backing byte store.
        filesystem: performance model used to price operations.
        shared_locks: whether the collective lock-sharing optimisation is on
            (see :meth:`repro.storage.base.FileSystemModel.access_penalty`).
    """

    def __init__(
        self,
        world: "SimWorld",
        simfile: SimFile,
        filesystem: FileSystemModel,
        *,
        shared_locks: bool = True,
    ) -> None:
        # Weak, so a finished world is freed by reference counting rather
        # than by a later cycle collection (the world holds its open files).
        self._world = weakref.ref(world)
        self._env = world.env
        self.simfile = simfile
        self.filesystem = filesystem
        self.shared_locks = shared_locks
        self._active_ops = 0
        #: Total simulated seconds spent in write operations (summed over ranks).
        self.write_seconds = 0.0
        #: Total simulated seconds spent in read operations (summed over ranks).
        self.read_seconds = 0.0

    @property
    def world(self) -> "SimWorld":
        """The simulation world the file is open in."""
        return self._world()

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _operation(
        self, offset: int, data_or_nbytes: Any, access: str
    ) -> tuple[int, float]:
        """Compute (nbytes, duration) for an operation starting now."""
        if access == "write":
            if isinstance(data_or_nbytes, np.ndarray):
                nbytes = int(data_or_nbytes.nbytes)
            else:
                nbytes = len(data_or_nbytes)
        else:
            nbytes = int(data_or_nbytes)
        concurrency = self._active_ops + 1
        duration = self.filesystem.operation_time(
            nbytes,
            offset=offset,
            access=access,
            concurrent_streams=concurrency,
            shared_locks=self.shared_locks,
        )
        return nbytes, duration

    # ------------------------------------------------------------------ #
    # Blocking operations
    # ------------------------------------------------------------------ #

    def write_at(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> Generator[Event, Any, int]:
        """Blocking write of ``data`` at byte ``offset``; returns bytes written."""
        nbytes, duration = self._operation(offset, data, "write")
        self._active_ops += 1
        try:
            yield self._env.timeout(duration)
        finally:
            self._active_ops -= 1
        self.simfile.write(offset, data)
        self.write_seconds += duration
        return nbytes

    def read_at(self, offset: int, nbytes: int) -> Generator[Event, Any, bytes]:
        """Blocking read of ``nbytes`` at byte ``offset``."""
        _, duration = self._operation(offset, nbytes, "read")
        self._active_ops += 1
        try:
            yield self._env.timeout(duration)
        finally:
            self._active_ops -= 1
        self.read_seconds += duration
        return self.simfile.read(offset, nbytes)

    # ------------------------------------------------------------------ #
    # Non-blocking operations
    # ------------------------------------------------------------------ #

    def iwrite_at(
        self, offset: int, data: bytes | bytearray | np.ndarray
    ) -> Request:
        """Non-blocking write; returns a :class:`Request` to wait on.

        The data is captured immediately (as MPI requires of the user buffer
        once handed to a non-blocking operation in this simplified model) and
        becomes visible in the backing file when the request completes.
        """
        if isinstance(data, np.ndarray):
            captured: bytes | np.ndarray = np.array(data, copy=True)
        else:
            captured = bytes(data)
        nbytes, duration = self._operation(offset, captured, "write")
        self._active_ops += 1
        env = self._env

        def _complete() -> Generator[Event, Any, int]:
            try:
                yield env.timeout(duration)
            finally:
                self._active_ops -= 1
            self.simfile.write(offset, captured)
            self.write_seconds += duration
            return nbytes

        process = env.process(_complete(), name=f"iwrite@{offset}")
        return Request(process, label=f"iwrite_at(offset={offset}, nbytes={nbytes})")

    def iread_at(self, offset: int, nbytes: int) -> Request:
        """Non-blocking read; the request's value is the bytes read."""
        _, duration = self._operation(offset, nbytes, "read")
        self._active_ops += 1
        env = self._env

        def _complete() -> Generator[Event, Any, bytes]:
            try:
                yield env.timeout(duration)
            finally:
                self._active_ops -= 1
            self.read_seconds += duration
            return self.simfile.read(offset, nbytes)

        process = env.process(_complete(), name=f"iread@{offset}")
        return Request(process, label=f"iread_at(offset={offset}, nbytes={nbytes})")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current size of the backing file in bytes."""
        return self.simfile.size

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SimMPIFile {self.simfile.name!r} size={self.size} "
            f"fs={self.filesystem.name}>"
        )
