"""The simulation world: machine + ranks + clock.

:class:`SimWorld` is the entry point of the discrete-event path.  It builds
the rank-to-node mapping, owns the event engine and the file registry, and
runs *rank programs* — generator functions receiving a :class:`RankContext`
— to completion, returning the simulated elapsed time and per-rank results.

Example::

    world = SimWorld(MiraMachine(32, pset_size=16), ranks_per_node=2)

    def program(ctx):
        peers = yield from ctx.comm.allgather(ctx.rank)
        return len(peers)

    result = world.run(program)
    assert result.returns == [world.num_ranks] * world.num_ranks
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder, span as obs_span
from repro.simmpi.communicator import Communicator, ReduceOp
from repro.simmpi.engine import Environment, Event, Process
from repro.simmpi.errors import DeadlockError, RankProgramError, SimMPIError
from repro.simmpi.file import SimMPIFile
from repro.simmpi.rma import Window
from repro.storage.base import FileSystemModel
from repro.storage.file import SimFileRegistry
from repro.topology.mapping import RankMapping, block_mapping
from repro.utils.validation import require_positive

#: Fixed software overhead per collective step (match-and-progress cost).
COLLECTIVE_SOFTWARE_OVERHEAD = 2.0e-6
#: Latency of an intra-node (shared-memory) transfer.
INTRA_NODE_LATENCY = 0.4e-6


class BoundComm:
    """A communicator bound to one calling rank.

    Rank programs use this facade so they do not have to thread their own
    rank through every call: ``yield from ctx.comm.barrier()``.
    """

    def __init__(self, comm: Communicator, rank: int) -> None:
        self._comm = comm
        self._rank = comm._validate_rank(rank)

    # -- introspection -------------------------------------------------- #

    @property
    def raw(self) -> Communicator:
        """The underlying shared communicator."""
        return self._comm

    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._comm.size

    @property
    def world_rank(self) -> int:
        """This rank's world (COMM_WORLD) rank."""
        return self._comm.world_rank(self._rank)

    def node_of(self, rank: int) -> int:
        """Compute node hosting communicator rank ``rank``."""
        return self._comm.node_of(rank)

    # -- collectives ----------------------------------------------------- #

    def barrier(self):
        """Barrier over the communicator."""
        return self._comm.barrier(self._rank)

    def allreduce(self, value: Any, op: str = ReduceOp.MINLOC, nbytes: int = 8):
        """Allreduce (``op="minloc"`` with ``(value, loc)`` pairs)."""
        return self._comm.allreduce(self._rank, value, op, nbytes)

    def allgather(self, value: Any, nbytes: int = 8):
        """Allgather values."""
        return self._comm.allgather(self._rank, value, nbytes)

    def split(self, color: int, key: int | None = None) -> Generator[Event, Any, "BoundComm"]:
        """Split the communicator; returns the bound sub-communicator."""
        new_comm = yield from self._comm.split(self._rank, color, key)
        new_rank = new_comm.comm_rank_of_world(self.world_rank)
        return BoundComm(new_comm, new_rank)

    def create_window(self, size: int) -> Generator[Event, Any, Window]:
        """Collectively allocate an RMA window exposing ``size`` bytes on this rank."""
        window = yield from self._comm.create_window(self._rank, size)
        return window

    def fence(self, window: Window, count: int = 1) -> Generator[Event, Any, None]:
        """Fence ``count`` consecutive RMA epochs on ``window`` (of this communicator).

        ``count > 1`` is for a rank with nothing to put or get between the
        fences: it passes through them and resumes after the last one.
        """
        if window.comm is not self._comm:
            raise SimMPIError("fence called with a window of a different communicator")
        return window.fence(self._rank, count)

    def put(
        self,
        window: Window,
        data: Any,
        target_rank: int,
        target_offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """RMA put into ``target_rank``'s buffer of ``window`` from this rank."""
        if window.comm is not self._comm:
            raise SimMPIError("put called with a window of a different communicator")
        return window.put(self._rank, data, target_rank, target_offset)


@dataclass
class RankContext:
    """Everything a rank program needs about "itself".

    Attributes:
        world: the owning simulation world.
        rank: world rank.
        node: compute node hosting the rank.
        comm: :class:`BoundComm` over COMM_WORLD.
    """

    world: "SimWorld"
    rank: int
    node: int
    comm: BoundComm

    @property
    def env(self) -> Environment:
        """The shared event engine (for timeouts and custom events)."""
        return self.world.env

    @property
    def num_ranks(self) -> int:
        """Total number of ranks in the world."""
        return self.world.num_ranks


@dataclass
class WorldResult:
    """Result of running a rank program on a world.

    Attributes:
        elapsed: simulated wall-clock time of the slowest rank, in seconds.
        returns: per-rank return values of the program.
        files: the world's file registry after the run.
    """

    elapsed: float
    returns: list[Any]
    files: SimFileRegistry

    def bandwidth(self, total_bytes: float) -> float:
        """Convenience: aggregate bandwidth in bytes/s for ``total_bytes`` moved."""
        if self.elapsed <= 0:
            return float("inf")
        return float(total_bytes) / self.elapsed


class SimWorld:
    """A simulated MPI world on a given machine.

    Args:
        machine: the platform model (topology, node spec, storage).
        num_nodes: nodes used by the job (defaults to the whole machine).
        ranks_per_node: MPI ranks per node (defaults to the machine's usual
            value, 16 on both Mira and Theta).
        mapping: explicit rank mapping; defaults to a block mapping.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        num_nodes: int | None = None,
        ranks_per_node: int | None = None,
        mapping: RankMapping | None = None,
    ) -> None:
        self.machine = machine
        self.env = Environment()
        nodes = machine.num_nodes if num_nodes is None else int(num_nodes)
        require_positive(nodes, "num_nodes")
        if nodes > machine.num_nodes:
            raise SimMPIError(
                f"requested {nodes} nodes but the machine has {machine.num_nodes}"
            )
        rpn = (
            machine.default_ranks_per_node
            if ranks_per_node is None
            else int(ranks_per_node)
        )
        machine.validate_ranks_per_node(rpn)
        self.ranks_per_node = rpn
        self.num_nodes = nodes
        if mapping is None:
            mapping = block_mapping(nodes * rpn, nodes, rpn)
        self.mapping = mapping
        self.num_ranks = mapping.num_ranks
        self._rank_nodes: list[int] = mapping.node_of_rank.tolist()
        self.files = SimFileRegistry()
        self._open_files: dict[str, SimMPIFile] = {}
        self.comm_world = Communicator(
            self, list(range(self.num_ranks)), name="MPI_COMM_WORLD"
        )
        # Intra-node copies move at the node's main-memory bandwidth.
        self._intra_node_bandwidth = machine.node_spec.main_memory.bandwidth
        #: ``{src: {dst: (fixed seconds, bandwidth)}}`` over the world's
        #: nodes, priced at the first transfer (:meth:`transfer_time`).
        self._pair_costs: dict[int, dict[int, tuple[float, float]]] | None = None

    # ------------------------------------------------------------------ #
    # Mapping / timing queries used by the communication layers
    # ------------------------------------------------------------------ #

    def node_of_rank(self, world_rank: int) -> int:
        """Compute node hosting a world rank."""
        if 0 <= world_rank < self.num_ranks:
            return self._rank_nodes[world_rank]
        return self.mapping.node(world_rank)  # raises the mapping's range error

    def transfer_time(self, src_node: int, dst_node: int, nbytes: float) -> float:
        """Time to move ``nbytes`` between two nodes of the world (or within one).

        Between nodes this is the topology's ``l * d + nbytes / B`` model
        (:meth:`~repro.topology.base.Topology.transfer_time`), within a node
        a shared-memory copy; the terms of every node pair come from one
        :meth:`~repro.topology.base.Topology.pair_metrics` call.
        """
        if nbytes < 0:
            raise SimMPIError(f"nbytes must be >= 0, got {nbytes}")
        pairs = self._pair_costs
        if pairs is None:
            pairs = self._pair_costs = self._price_pairs()
        fixed, bandwidth = pairs[src_node][dst_node]
        return fixed + float(nbytes) / bandwidth

    def _price_pairs(self) -> dict[int, dict[int, tuple[float, float]]]:
        topology = self.machine.topology
        nodes = sorted(set(self._rank_nodes))
        hops, bandwidths = topology.pair_metrics(nodes, nodes)
        latency = topology.latency()
        intra = (INTRA_NODE_LATENCY, float(self._intra_node_bandwidth))
        return {
            src: {
                dst: intra if src == dst else (float(latency * hop), bandwidth)
                for dst, hop, bandwidth in zip(nodes, hop_row, bandwidth_row)
            }
            for src, hop_row, bandwidth_row in zip(nodes, hops.tolist(), bandwidths.tolist())
        }

    def _average_hops(self, comm: Communicator) -> float:
        """Mean hop distance between the nodes of a communicator (sampled).

        Kept on the communicator itself: a cache keyed by ``id(comm)`` would
        hand a freed communicator's mean to whichever one CPython allocates
        at the same address next.
        """
        if comm.mean_hops is None:
            nodes = sorted({self.node_of_rank(wr) for wr in comm.world_ranks})
            if len(nodes) < 2:
                comm.mean_hops = 0.0
            else:
                # Deterministic sparse sample: pair each sampled node with a
                # "far" partner; enough for a representative mean at low cost.
                sample = nodes[:: max(1, len(nodes) // 16)] or nodes
                topo = self.machine.topology
                total = 0
                count = 0
                for i, a in enumerate(sample):
                    b = sample[(i + len(sample) // 2) % len(sample)]
                    if a == b:
                        continue
                    total += topo.distance(a, b)
                    count += 1
                comm.mean_hops = total / max(count, 1)
        return comm.mean_hops

    def collective_step_cost(self, comm: Communicator, nbytes: int) -> float:
        """Cost of one step of a log-tree collective on ``comm``."""
        topo = self.machine.topology
        hops = max(1.0, self._average_hops(comm))
        bandwidth = topo.link_bandwidth("default")
        return (
            COLLECTIVE_SOFTWARE_OVERHEAD
            + topo.latency() * hops
            + float(nbytes) / bandwidth
        )

    # ------------------------------------------------------------------ #
    # Resources
    # ------------------------------------------------------------------ #

    def open_file(
        self,
        path: str,
        filesystem: FileSystemModel | None = None,
        *,
        shared_locks: bool = True,
    ) -> SimMPIFile:
        """Open (or create) a simulated file shared by all ranks.

        Repeated opens of the same path return the same handle, mirroring a
        shared file opened collectively.
        """
        if path not in self._open_files:
            simfile = self.files.open(path)
            self._open_files[path] = SimMPIFile(
                self,
                simfile,
                filesystem or self.machine.filesystem(),
                shared_locks=shared_locks,
            )
        return self._open_files[path]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        program: Callable[..., Generator[Event, Any, Any]],
        *,
        program_kwargs: dict[str, Any] | None = None,
        per_rank_kwargs: Callable[[int], dict[str, Any]] | None = None,
    ) -> WorldResult:
        """Run ``program`` on every rank and return the aggregate result.

        Args:
            program: generator function ``program(ctx, **kwargs)``.
            program_kwargs: keyword arguments passed to every rank.
            per_rank_kwargs: optional callable mapping a world rank to extra
                keyword arguments for that rank (overrides common ones).

        Raises:
            RankProgramError: if any rank program raised, naming the lowest
                such rank, also when the failure left other ranks blocked.
            DeadlockError: if no rank failed but the programs deadlocked
                (a collective some rank never enters).
        """
        common = dict(program_kwargs or {})
        processes = []
        contexts = []
        events_before = self.env.events_processed
        with obs_span(
            "sim.world_run", cat="sim", ranks=self.num_ranks, nodes=self.num_nodes
        ):
            for rank in range(self.num_ranks):
                ctx = RankContext(
                    world=self,
                    rank=rank,
                    node=self.node_of_rank(rank),
                    comm=BoundComm(self.comm_world, rank),
                )
                contexts.append(ctx)
                kwargs = dict(common)
                if per_rank_kwargs is not None:
                    kwargs.update(per_rank_kwargs(rank))
                generator = program(ctx, **kwargs)
                processes.append(self.env.process(generator, name=f"rank{rank}"))
            try:
                elapsed = self.env.run_all(expect_processes=processes)
            except DeadlockError:
                # A failed rank leaves its peers blocked: report the cause.
                _raise_first_failure(processes)
                raise
        rec = obs_recorder()
        if rec is not None:
            rec.inc("sim.events", self.env.events_processed - events_before)
            rec.inc("sim.world_runs")
        _raise_first_failure(processes)
        returns = [process.value for process in processes]
        return WorldResult(elapsed=elapsed, returns=returns, files=self.files)


def _raise_first_failure(processes: list[Process]) -> None:
    """Raise :class:`RankProgramError` for the lowest rank whose program failed."""
    for rank, process in enumerate(processes):
        if not process.ok:
            raise RankProgramError(rank, process.value)
