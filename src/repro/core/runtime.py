"""Discrete-event execution of TAPIOCA (the paper's Algorithm 3).

:class:`TapiocaIO` runs the actual TAPIOCA write/read protocol on the
simulated MPI runtime:

1. the partition's ranks derive a sub-communicator and *elect* their
   aggregator with an ``Allreduce(MINLOC)`` over the C1+C2 cost each
   candidate computed locally (Section IV-B);
2. the aggregator exposes ``pipeline_depth`` aggregation buffers in an RMA
   window; every round is a fence → ``Put`` → fence epoch during which each
   rank deposits the pieces the round scheduler assigned to it (a rank with
   nothing to put passes through the fences up to its next put in one
   call, which changes no simulated time);
3. at the end of a round the aggregator issues a **non-blocking** flush of
   the filled buffer (``iFlush`` in the paper) and immediately proceeds to
   the next round, which fills the other buffer — the overlap of aggregation
   and I/O phases the paper obtains with double buffering;
4. before reusing a buffer, the aggregator waits for that buffer's previous
   flush to complete (back-pressure), and it drains all outstanding flushes
   after the last round.

Bytes really land in the simulated file, so tests verify the result against
the workload's expected image byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.aggregation import AggregationSchedule, build_schedule
from repro.core.config import TapiocaConfig
from repro.core.partitioning import Partitions, build_partitions
from repro.core.placement import PlacementResult, place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.obs import recorder as obs_recorder
from repro.simmpi.engine import Event
from repro.simmpi.errors import SimMPIError
from repro.simmpi.request import Request
from repro.simmpi.world import RankContext, SimWorld
from repro.workloads.base import Workload


class TapiocaIO:
    """TAPIOCA writer/reader bound to one simulation world.

    Args:
        world: the simulation world the ranks run in.
        workload: the declared workload (the ``TAPIOCA_Init`` information).
        config: TAPIOCA tuning configuration.
        path: output file path in the world's file registry.
        filesystem: optional file-system model override (defaults to the
            machine's).
    """

    def __init__(
        self,
        world: SimWorld,
        workload: Workload,
        config: TapiocaConfig | None = None,
        *,
        path: str = "/out/tapioca.dat",
        filesystem=None,
    ) -> None:
        self.world = world
        self.workload = workload
        self.config = config or TapiocaConfig()
        self.path = path
        if workload.num_ranks != world.num_ranks:
            raise SimMPIError(
                f"workload defines {workload.num_ranks} ranks but the world has "
                f"{world.num_ranks}"
            )
        self.iface = TopologyInterface(world.machine, world.mapping)
        self.partitions: Partitions = build_partitions(
            workload,
            self.config.resolve_num_aggregators(world.machine, world.num_ranks),
            machine=world.machine,
            mapping=world.mapping,
            partition_by=self.config.partition_by,
        )
        #: Partitions (and aggregators) built: Pset partitioning can build
        #: fewer than the configuration asks for.
        self.num_aggregators = len(self.partitions)
        self.placement: PlacementResult = place_aggregators(
            self.partitions,
            self.iface,
            strategy=self.config.placement,
            seed=self.config.placement_seed,
        )
        self.schedule: AggregationSchedule = build_schedule(
            workload, self.partitions, self.config.buffer_size
        )
        #: ``{rank: {round: [(segment, segment_offset, nbytes, buffer_offset)]}}``.
        self._rank_rounds = self.schedule.rank_rounds()
        #: ``[partition][round]``: ``(file_offset, nbytes, buffer_offset)`` extents.
        self._flush_rounds = self.schedule.flush_rounds()
        #: ``(rank, offset, nbytes, call_index)`` of every declared segment.
        self._segments = list(zip(*(column.tolist() for column in self.schedule.segments)))
        #: Payload of every declared segment, drawn in one batch at the
        #: write's first put (reads draw none).
        self._payloads: list[bytes] | None = None
        self.file = world.open_file(
            path, filesystem, shared_locks=self.config.shared_locks
        )
        #: ``{rank: C1 + C2}`` election value of every rank, taken from the
        #: placement's one rank-granularity pass (topology-aware only).
        self._election_costs: dict[int, float] = {}
        if self.placement.costs is not None:
            aggregation, io = self.placement.costs
            self._election_costs = dict(
                zip(self.placement.candidates.ranks.tolist(), (aggregation + io).tolist())
            )
        #: Diagnostics: flush (file write) operations issued by aggregators.
        self.flush_count = 0
        #: Diagnostics: elected aggregator world rank per partition index.
        self.elected: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _election_value(self, rank: int, partition_index: int) -> tuple[float, int]:
        """The (cost, rank) pair this rank contributes to the MINLOC election."""
        if self.config.placement == "topology-aware":
            # This rank's entry of the placement's segmented election.
            return (self._election_costs[rank], rank)
        # Other strategies do not rely on the distributed election: every rank
        # contributes the precomputed winner so MINLOC trivially selects it,
        # but the collective is still performed (and timed).
        winner = self.placement.aggregator_of(partition_index)
        return ((0.0 if rank == winner else 1.0), rank)

    def _elect(self, ctx: RankContext) -> Generator[Event, Any, tuple]:
        """Join the partition, elect its aggregator and expose its buffers.

        Returns ``(partition_index, sub, aggregator_sub_rank, window)``:
        the partition sub-communicator (fences must only involve the
        partition), the aggregator's rank in it, and the RMA window holding
        the aggregator's ``pipeline_depth`` buffers.
        """
        partition_index = int(self.partitions.owners[ctx.rank])
        sub = yield from ctx.comm.split(partition_index)
        _cost, winner = yield from sub.allreduce(
            self._election_value(ctx.rank, partition_index), op="minloc", nbytes=16
        )
        aggregator_rank = int(winner)
        self.elected[partition_index] = aggregator_rank
        buffers = self.config.pipeline_depth * self.config.buffer_size
        window = yield from sub.create_window(buffers if ctx.rank == aggregator_rank else 0)
        return partition_index, sub, sub.raw.comm_rank_of_world(aggregator_rank), window

    # ------------------------------------------------------------------ #
    # Write path (Algorithm 3)
    # ------------------------------------------------------------------ #

    def write(self, ctx: RankContext) -> Generator[Event, Any, int]:
        """Collective TAPIOCA write of the whole declared workload.

        Returns the number of bytes this rank contributed.
        """
        partition_index, sub, aggregator_sub_rank, window = yield from self._elect(ctx)
        is_aggregator = sub.rank == aggregator_sub_rank
        flush_rounds = self._flush_rounds[partition_index]
        num_rounds = len(flush_rounds)
        depth = self.config.pipeline_depth
        buffer_size = self.config.buffer_size
        pending_flush: dict[int, list[Request]] = {i: [] for i in range(depth)}
        bytes_contributed = 0
        my_rounds = self._rank_rounds.get(ctx.rank, {})
        # Fences this rank still has to pass: a rank with nothing to do
        # between fences passes through all of them in one call.  The
        # aggregator acts after every round's second fence, so it never
        # carries any across a round.
        fences = 0
        for round_index in range(num_rounds):
            buffer_id = round_index % depth
            # Back-pressure: the aggregator must not let anyone fill a buffer
            # whose previous flush is still in flight.  It waits before the
            # fence, which delays every producer of the partition exactly as
            # the real implementation would.
            if is_aggregator and pending_flush[buffer_id]:
                yield from Request.wait_all(ctx.env, pending_flush[buffer_id])
                pending_flush[buffer_id] = []
            fences += 1
            # Aggregation phase: RMA put this round's pieces.
            puts = my_rounds.get(round_index)
            if puts:
                yield from sub.fence(window, fences)
                fences = 0
                if self._payloads is None:
                    self._payloads = self.workload.segment_payloads(self.schedule.segments)
                for segment, segment_offset, nbytes, buffer_offset in puts:
                    yield from sub.put(
                        window,
                        self._payloads[segment][segment_offset : segment_offset + nbytes],
                        aggregator_sub_rank,
                        buffer_id * buffer_size + buffer_offset,
                    )
                    bytes_contributed += nbytes
            fences += 1
            # I/O phase: non-blocking flush, overlapped with the next round
            # when pipeline_depth > 1.
            if is_aggregator:
                yield from sub.fence(window, fences)
                fences = 0
                buffer = window.buffer(aggregator_sub_rank)
                base = buffer_id * buffer_size
                for file_offset, nbytes, buffer_offset in flush_rounds[round_index]:
                    start = base + buffer_offset
                    data = bytes(buffer[start : start + nbytes])
                    request = self.file.iwrite_at(file_offset, data)
                    pending_flush[buffer_id].append(request)
                    self.flush_count += 1
                    rec = obs_recorder()
                    if rec is not None:
                        rec.inc("sim.buffer_fills", io="tapioca")
                        rec.inc("sim.flush_bytes", nbytes, io="tapioca")
                if depth == 1:
                    # No pipelining: wait for this round's flush immediately.
                    yield from Request.wait_all(ctx.env, pending_flush[buffer_id])
                    pending_flush[buffer_id] = []
        if fences:
            yield from sub.fence(window, fences)
        # Drain outstanding flushes, then leave collectively.
        if is_aggregator:
            outstanding = [r for requests in pending_flush.values() for r in requests]
            yield from Request.wait_all(ctx.env, outstanding)
        yield from ctx.comm.barrier()
        return bytes_contributed

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def read(self, ctx: RankContext) -> Generator[Event, Any, dict[int, bytes]]:
        """Collective TAPIOCA read of the whole declared workload.

        The aggregator prefetches round ``r+1`` with a non-blocking read
        while the partition's ranks drain round ``r`` from its buffer
        (the read-side counterpart of the write pipeline).  Returns a mapping
        ``{segment.offset: bytes}`` for this rank's segments.
        """
        partition_index, sub, aggregator_sub_rank, window = yield from self._elect(ctx)
        is_aggregator = sub.rank == aggregator_sub_rank
        flush_rounds = self._flush_rounds[partition_index]
        num_rounds = len(flush_rounds)
        depth = self.config.pipeline_depth
        buffer_size = self.config.buffer_size
        my_rounds = self._rank_rounds.get(ctx.rank, {})
        # ``{segment: bytes}``: every segment with data has exactly one
        # piece at segment offset 0.
        assembled: dict[int, bytearray] = {
            segment: bytearray(self._segments[segment][2])
            for pieces in my_rounds.values()
            for segment, segment_offset, _nbytes, _buffer_offset in pieces
            if segment_offset == 0
        }

        def prefetch(round_index: int) -> list[tuple[Request, int, int]]:
            """Issue non-blocking reads of a round's extents (aggregator only)."""
            return [
                (self.file.iread_at(file_offset, nbytes), buffer_offset, nbytes)
                for file_offset, nbytes, buffer_offset in flush_rounds[round_index]
            ]

        inflight: dict[int, list[tuple[Request, int, int]]] = {}
        if is_aggregator and num_rounds > 0:
            inflight[0] = prefetch(0)
        fences = 0  # fences to pass through, as in :meth:`write`
        for round_index in range(num_rounds):
            buffer_id = round_index % depth
            if is_aggregator:
                # Land this round's data into the staging buffer.
                buffer = window.buffer(aggregator_sub_rank)
                base = buffer_id * buffer_size
                for request, buffer_offset, nbytes in inflight.pop(round_index, []):
                    data = yield from request.wait()
                    buffer[base + buffer_offset : base + buffer_offset + nbytes] = (
                        bytearray(data)
                    )
                # Prefetch the next round before serving this one.
                if depth > 1 and round_index + 1 < num_rounds:
                    inflight[round_index + 1] = prefetch(round_index + 1)
            fences += 1
            gets = my_rounds.get(round_index)
            if gets:
                yield from sub.fence(window, fences)
                fences = 0
                for segment, segment_offset, nbytes, buffer_offset in gets:
                    data = yield from window.get(
                        sub.rank,
                        aggregator_sub_rank,
                        buffer_id * buffer_size + buffer_offset,
                        nbytes,
                    )
                    assembled[segment][segment_offset : segment_offset + nbytes] = data
            fences += 1
            if is_aggregator:
                yield from sub.fence(window, fences)
                fences = 0
                if depth == 1 and round_index + 1 < num_rounds:
                    inflight[round_index + 1] = prefetch(round_index + 1)
        if fences:
            yield from sub.fence(window, fences)
        yield from ctx.comm.barrier()
        return {
            self._segments[segment][1]: bytes(buf) for segment, buf in assembled.items()
        }

    # ------------------------------------------------------------------ #
    # Convenience entry points
    # ------------------------------------------------------------------ #

    def write_program(self):
        """A rank-program function running :meth:`write` (for ``SimWorld.run``)."""
        return self.write

    def read_program(self):
        """A rank-program function running :meth:`read` (for ``SimWorld.run``)."""
        return self.read
