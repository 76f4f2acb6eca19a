"""One-sided communication (RMA windows).

TAPIOCA aggregates data by having every rank ``Put`` its chunk directly into
the target aggregator's buffer, synchronised by fences (paper, Algorithm 3).
A :class:`Window` exposes exactly that: each rank of the owning communicator
contributes a buffer of a given size; ``put`` copies real bytes into the
target buffer and costs the interconnect transfer time; ``fence`` is a
barrier on the window's communicator.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.obs import recorder as obs_recorder
from repro.simmpi.communicator import Communicator
from repro.simmpi.engine import Event
from repro.simmpi.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.world import SimWorld


class Window:
    """An RMA window: one byte buffer per rank of a communicator.

    Args:
        world: owning simulation world.
        comm: communicator over which the window was created.
        size: size in bytes of each rank's exposed buffer (ranks that expose
            nothing — non-aggregators — may pass 0 through ``sizes``).
        sizes: optional per-rank buffer sizes overriding ``size``.
    """

    def __init__(
        self,
        world: "SimWorld",
        comm: Communicator,
        size: int = 0,
        sizes: dict[int, int] | None = None,
    ) -> None:
        self.world = world
        self.comm = comm
        self._buffers: dict[int, np.ndarray] = {}
        for rank in range(comm.size):
            rank_size = int(sizes.get(rank, size)) if sizes is not None else int(size)
            if rank_size < 0:
                raise SimMPIError(f"window size for rank {rank} must be >= 0")
            self._buffers[rank] = np.zeros(rank_size, dtype=np.uint8)
        #: Total bytes put into the window (diagnostics).
        self.bytes_put = 0
        #: Number of put operations (diagnostics).
        self.put_count = 0

    # ------------------------------------------------------------------ #
    # Buffer access
    # ------------------------------------------------------------------ #

    def buffer(self, rank: int) -> np.ndarray:
        """The raw exposed buffer of communicator rank ``rank`` (mutable view)."""
        self.comm._validate_rank(rank)
        return self._buffers[rank]

    def buffer_size(self, rank: int) -> int:
        """Size in bytes of the exposed buffer of ``rank``."""
        return int(self._buffers[self.comm._validate_rank(rank)].size)

    # ------------------------------------------------------------------ #
    # RMA operations (generator style)
    # ------------------------------------------------------------------ #

    def put(
        self,
        origin_rank: int,
        data: bytes | bytearray | np.ndarray,
        target_rank: int,
        target_offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """Copy ``data`` into ``target_rank``'s buffer at ``target_offset``.

        The origin rank's clock advances by the interconnect transfer time
        between the two hosting nodes (zero network cost if they share a
        node, but the local memory copy is still charged).
        """
        self.comm._validate_rank(origin_rank, "origin_rank")
        self.comm._validate_rank(target_rank, "target_rank")
        buf = (
            np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
            if isinstance(data, np.ndarray)
            else np.frombuffer(bytes(data), dtype=np.uint8)
        )
        nbytes = int(buf.size)
        target = self._buffers[target_rank]
        if target_offset < 0 or target_offset + nbytes > target.size:
            raise SimMPIError(
                f"RMA put of {nbytes} B at offset {target_offset} overflows "
                f"rank {target_rank}'s window of {target.size} B"
            )
        src_node = self.comm.node_of(origin_rank)
        dst_node = self.comm.node_of(target_rank)
        cost = self.world.transfer_time(src_node, dst_node, nbytes)
        yield self.world.env.timeout(cost)
        target[target_offset : target_offset + nbytes] = buf
        self.bytes_put += nbytes
        self.put_count += 1
        rec = obs_recorder()
        if rec is not None:
            rec.inc(
                "sim.rma_bytes",
                nbytes,
                link="intra" if src_node == dst_node else "inter",
            )

    def get(
        self,
        origin_rank: int,
        target_rank: int,
        target_offset: int,
        nbytes: int,
    ) -> Generator[Event, Any, bytes]:
        """Read ``nbytes`` from ``target_rank``'s buffer (one-sided get)."""
        self.comm._validate_rank(origin_rank, "origin_rank")
        self.comm._validate_rank(target_rank, "target_rank")
        target = self._buffers[target_rank]
        if target_offset < 0 or target_offset + nbytes > target.size:
            raise SimMPIError(
                f"RMA get of {nbytes} B at offset {target_offset} overflows "
                f"rank {target_rank}'s window of {target.size} B"
            )
        src_node = self.comm.node_of(target_rank)
        dst_node = self.comm.node_of(origin_rank)
        cost = self.world.transfer_time(src_node, dst_node, nbytes)
        yield self.world.env.timeout(cost)
        return bytes(target[target_offset : target_offset + nbytes])

    def fence(self, rank: int, count: int = 1) -> Generator[Event, Any, None]:
        """Synchronise ``count`` consecutive RMA epochs (barriers over the window's communicator)."""
        return self.comm.barrier(rank, count)
