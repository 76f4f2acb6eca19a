"""Simulated MPI communicators: point-to-point and collective operations.

The communicator implements the subset of MPI that TAPIOCA and the ROMIO
baseline rely on:

* blocking point-to-point ``send``/``recv`` with tag matching (rendezvous
  semantics: both sides complete after the modelled transfer time);
* collectives: ``barrier``, ``bcast``, ``reduce``, ``allreduce`` (including
  the ``minloc`` operation used for the aggregator election), ``gather``,
  ``allgather``, ``scatter``, ``alltoall``;
* ``split`` to derive sub-communicators (one per aggregation partition).

All ranks of a communicator must call collectives in the same order — this
is checked and a :class:`~repro.simmpi.errors.SimMPIError` is raised on a
mismatch, which turns a silent deadlock into a clear test failure.

Timing model: a point-to-point transfer of ``n`` bytes between nodes ``u``
and ``v`` costs ``l * d(u, v) + n / B(u, v)`` (the same expression the
paper's cost model uses); intra-node transfers cost ``n / B_mem``.
Collectives cost ``ceil(log2(P))`` such steps on the communicator's average
hop distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence, TYPE_CHECKING

from repro.simmpi.engine import Event
from repro.simmpi.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.simmpi.world import SimWorld


class ReduceOp:
    """Named reduction operations (a tiny subset of MPI_Op)."""

    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    MINLOC = "minloc"
    MAXLOC = "maxloc"

    _SIMPLE: dict[str, Callable[[Any, Any], Any]] = {
        "sum": lambda a, b: a + b,
        "prod": lambda a, b: a * b,
        "min": min,
        "max": max,
    }

    @classmethod
    def combine(cls, op: str, values: Sequence[Any]) -> Any:
        """Combine per-rank contributions with the named operation.

        ``minloc``/``maxloc`` expect ``(value, location)`` pairs and return
        the pair with the smallest/largest value (ties resolved towards the
        smallest location, as MPI does).
        """
        if not values:
            raise SimMPIError("cannot reduce an empty value list")
        if op in cls._SIMPLE:
            result = values[0]
            for value in values[1:]:
                result = cls._SIMPLE[op](result, value)
            return result
        if op in (cls.MINLOC, cls.MAXLOC):
            pairs = [tuple(v) for v in values]
            for pair in pairs:
                if len(pair) != 2:
                    raise SimMPIError(
                        f"{op} requires (value, location) pairs, got {pair!r}"
                    )
            if op == cls.MINLOC:
                return min(pairs, key=lambda p: (p[0], p[1]))
            return max(pairs, key=lambda p: (p[0], -p[1]))
        raise SimMPIError(f"unknown reduction operation {op!r}")


#: Messages at or below this size complete the sender eagerly (the payload is
#: buffered by the "network"), mirroring MPI's eager protocol; larger messages
#: use rendezvous semantics and block the sender until the receive is matched.
EAGER_THRESHOLD = 64 * 1024


@dataclass
class _PendingSend:
    """A posted send waiting for its matching receive."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    post_time: float
    completion: Event


@dataclass
class _PendingRecv:
    """A posted receive waiting for its matching send."""

    src: int | None
    dst: int
    tag: int | None
    post_time: float
    completion: Event


@dataclass
class _CollectiveSlot:
    """Rendezvous state for one collective call instance."""

    name: str
    expected: int
    contributions: dict[int, Any] = field(default_factory=dict)
    completions: dict[int, Event] = field(default_factory=dict)
    nbytes: int = 8


class Communicator:
    """A group of ranks that can communicate.

    Ranks inside a communicator are numbered ``0 .. size-1``; the mapping to
    world ranks is kept in :attr:`world_ranks`.
    """

    def __init__(self, world: "SimWorld", world_ranks: Sequence[int], name: str = "comm"):
        if len(world_ranks) == 0:
            raise SimMPIError("a communicator needs at least one rank")
        if len(set(world_ranks)) != len(world_ranks):
            raise SimMPIError("duplicate ranks in communicator")
        self.world = world
        self.name = name
        self.world_ranks: tuple[int, ...] = tuple(world_ranks)
        self._rank_of_world = {wr: r for r, wr in enumerate(self.world_ranks)}
        # Point-to-point matching queues keyed by destination comm rank.
        self._pending_sends: list[_PendingSend] = []
        self._pending_recvs: list[_PendingRecv] = []
        # Collective bookkeeping: per-rank call counters + active slots.
        self._collective_counter: dict[int, int] = {r: 0 for r in range(self.size)}
        self._collective_slots: dict[int, _CollectiveSlot] = {}
        #: Sampled mean hop distance between member nodes, set by the world
        #: the first time a collective on this communicator is priced.
        self.mean_hops: float | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.world_ranks)

    def world_rank(self, rank: int) -> int:
        """World rank of communicator rank ``rank``."""
        self._validate_rank(rank)
        return self.world_ranks[rank]

    def comm_rank_of_world(self, world_rank: int) -> int:
        """Communicator rank of a world rank (KeyError if not a member)."""
        return self._rank_of_world[world_rank]

    def contains_world_rank(self, world_rank: int) -> bool:
        """Whether the world rank belongs to this communicator."""
        return world_rank in self._rank_of_world

    def node_of(self, rank: int) -> int:
        """Compute node hosting communicator rank ``rank``."""
        return self.world.node_of_rank(self.world_rank(rank))

    def _validate_rank(self, rank: int, name: str = "rank") -> int:
        if not 0 <= rank < self.size:
            raise SimMPIError(
                f"{name} {rank} out of range for communicator {self.name!r} "
                f"of size {self.size}"
            )
        return rank

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def _try_match(self) -> None:
        """Match pending sends and receives (first-posted-first-matched)."""
        matched = True
        while matched:
            matched = False
            for recv in list(self._pending_recvs):
                for send in list(self._pending_sends):
                    if send.dst != recv.dst:
                        continue
                    if recv.src is not None and send.src != recv.src:
                        continue
                    if recv.tag is not None and send.tag != recv.tag:
                        continue
                    self._complete_pair(send, recv)
                    self._pending_sends.remove(send)
                    self._pending_recvs.remove(recv)
                    matched = True
                    break
                if matched:
                    break

    def _complete_pair(self, send: _PendingSend, recv: _PendingRecv) -> None:
        env = self.world.env
        src_node = self.node_of(send.src)
        dst_node = self.node_of(send.dst)
        transfer = self.world.transfer_time(src_node, dst_node, send.nbytes)
        # Rendezvous: the transfer starts when both sides are posted, which is
        # "now" (the moment the second of the two is posted).
        def _deliver(payload: Any = send.payload) -> Generator[Event, Any, None]:
            yield env.timeout(transfer)
            if not recv.completion.triggered:
                recv.completion.succeed((payload, send.src, send.tag))
            if not send.completion.triggered:
                send.completion.succeed(None)

        env.process(_deliver(), name=f"{self.name}:xfer:{send.src}->{send.dst}")

    def send(
        self, src: int, dst: int, payload: Any, nbytes: int, tag: int = 0
    ) -> Generator[Event, Any, None]:
        """Blocking send from comm rank ``src`` to ``dst``.

        ``payload`` is delivered to the matching receive unchanged; ``nbytes``
        drives the timing model (the payload itself may be a lightweight
        description rather than real data).

        Messages of at most :data:`EAGER_THRESHOLD` bytes complete the sender
        immediately after the injection cost (eager protocol); larger
        messages block the sender until the matching receive is posted
        (rendezvous protocol).
        """
        self._validate_rank(src, "src")
        self._validate_rank(dst, "dst")
        completion = self.world.env.event()
        pending = _PendingSend(
            src, dst, tag, payload, int(nbytes), self.world.env.now, completion
        )
        self._pending_sends.append(pending)
        if pending.nbytes <= EAGER_THRESHOLD and not completion.triggered:
            # Eager: the sender only pays the injection cost; delivery to the
            # receiver is priced when the message is matched.
            injection = self.world.transfer_time(
                self.node_of(src), self.node_of(src), pending.nbytes
            )
            self._try_match()
            if not completion.triggered:
                completion.succeed(None)
            yield self.world.env.timeout(injection)
            return
        self._try_match()
        yield completion

    def recv(
        self, dst: int, src: int | None = None, tag: int | None = None
    ) -> Generator[Event, Any, tuple[Any, int, int]]:
        """Blocking receive posted by comm rank ``dst``.

        Returns ``(payload, source_rank, tag)``; ``src``/``tag`` of ``None``
        match any sender / any tag (``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``).
        """
        self._validate_rank(dst, "dst")
        if src is not None:
            self._validate_rank(src, "src")
        completion = self.world.env.event()
        self._pending_recvs.append(
            _PendingRecv(src, dst, tag, self.world.env.now, completion)
        )
        self._try_match()
        result = yield completion
        return result

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def _collective_cost(self, nbytes: int) -> float:
        """Cost of one collective over this communicator (log-tree model)."""
        if self.size == 1:
            return 0.0
        steps = max(1, math.ceil(math.log2(self.size)))
        return steps * self.world.collective_step_cost(self, int(nbytes))

    def _enter_collective(
        self, rank: int, name: str, value: Any, nbytes: int
    ) -> tuple[_CollectiveSlot, Event, bool]:
        """Register a rank's arrival at its next collective; returns the slot."""
        self._validate_rank(rank)
        seq = self._collective_counter[rank]
        self._collective_counter[rank] = seq + 1
        slot = self._collective_slots.get(seq)
        if slot is None:
            slot = _CollectiveSlot(name=name, expected=self.size, nbytes=nbytes)
            self._collective_slots[seq] = slot
        if slot.name != name:
            raise SimMPIError(
                f"collective mismatch on {self.name!r}: rank {rank} called "
                f"{name!r} while others called {slot.name!r}"
            )
        if rank in slot.contributions:
            raise SimMPIError(
                f"rank {rank} entered collective {name!r} twice at sequence {seq}"
            )
        slot.contributions[rank] = value
        slot.nbytes = max(slot.nbytes, nbytes)
        completion = self.world.env.event()
        slot.completions[rank] = completion
        complete = len(slot.contributions) == slot.expected
        if complete:
            del self._collective_slots[seq]
        return slot, completion, complete

    def _finish_collective(
        self, slot: _CollectiveSlot, result_for_rank: Callable[[int], Any]
    ) -> None:
        """Schedule completion of every participant after the collective cost."""
        env = self.world.env
        cost = self._collective_cost(slot.nbytes)

        def _release() -> Generator[Event, Any, None]:
            yield env.timeout(cost)
            for rank, event in slot.completions.items():
                if not event.triggered:
                    event.succeed(result_for_rank(rank))

        env.process(_release(), name=f"{self.name}:{slot.name}")

    def _run_collective(
        self,
        rank: int,
        name: str,
        value: Any,
        nbytes: int,
        result_builder: Callable[[dict[int, Any]], Callable[[int], Any]],
    ) -> Generator[Event, Any, Any]:
        slot, completion, is_last = self._enter_collective(rank, name, value, nbytes)
        if is_last:
            try:
                builder = result_builder(slot.contributions)
            except Exception as exc:
                # A malformed collective (e.g. a scatter root supplying the
                # wrong number of values) fails every participant rather than
                # deadlocking the others.
                for event in slot.completions.values():
                    if not event.triggered:
                        event.fail(exc)
            else:
                self._finish_collective(slot, builder)
        result = yield completion
        return result

    def barrier(self, rank: int) -> Generator[Event, Any, None]:
        """Synchronise all ranks of the communicator."""
        yield from self._run_collective(
            rank, "barrier", None, 0, lambda contrib: (lambda r: None)
        )

    def bcast(self, rank: int, value: Any, root: int = 0, nbytes: int = 8) -> Generator[Event, Any, Any]:
        """Broadcast ``value`` from ``root``; every rank returns the root's value."""
        self._validate_rank(root, "root")
        result = yield from self._run_collective(
            rank,
            "bcast",
            value if rank == root else None,
            nbytes,
            lambda contrib: (lambda r, v=contrib[root]: v),
        )
        return result

    def reduce(
        self, rank: int, value: Any, op: str = ReduceOp.SUM, root: int = 0, nbytes: int = 8
    ) -> Generator[Event, Any, Any]:
        """Reduce to ``root``; non-root ranks receive ``None``."""
        self._validate_rank(root, "root")

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            combined = ReduceOp.combine(op, [contrib[r] for r in sorted(contrib)])
            return lambda r: combined if r == root else None

        result = yield from self._run_collective(rank, f"reduce:{op}", value, nbytes, build)
        return result

    def allreduce(
        self, rank: int, value: Any, op: str = ReduceOp.SUM, nbytes: int = 8
    ) -> Generator[Event, Any, Any]:
        """Reduce and deliver the result to every rank.

        With ``op="minloc"`` and ``value=(cost, rank)`` pairs this is exactly
        the aggregator election of the paper (Section IV-B).
        """

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            combined = ReduceOp.combine(op, [contrib[r] for r in sorted(contrib)])
            return lambda r: combined

        result = yield from self._run_collective(rank, f"allreduce:{op}", value, nbytes, build)
        return result

    def gather(
        self, rank: int, value: Any, root: int = 0, nbytes: int = 8
    ) -> Generator[Event, Any, list[Any] | None]:
        """Gather per-rank values at ``root`` (others receive ``None``)."""
        self._validate_rank(root, "root")

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            ordered = [contrib[r] for r in sorted(contrib)]
            return lambda r: list(ordered) if r == root else None

        result = yield from self._run_collective(rank, "gather", value, nbytes, build)
        return result

    def allgather(
        self, rank: int, value: Any, nbytes: int = 8
    ) -> Generator[Event, Any, list[Any]]:
        """Gather per-rank values and deliver the full list to every rank."""

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            ordered = [contrib[r] for r in sorted(contrib)]
            return lambda r: list(ordered)

        result = yield from self._run_collective(rank, "allgather", value, nbytes, build)
        return result

    def scatter(
        self, rank: int, values: Sequence[Any] | None, root: int = 0, nbytes: int = 8
    ) -> Generator[Event, Any, Any]:
        """Scatter a sequence from ``root``; rank ``r`` receives ``values[r]``."""
        self._validate_rank(root, "root")

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            source = contrib[root]
            if source is None or len(source) != self.size:
                raise SimMPIError(
                    f"scatter root must supply exactly {self.size} values"
                )
            items = list(source)
            return lambda r: items[r]

        result = yield from self._run_collective(rank, "scatter", values, nbytes, build)
        return result

    def alltoall(
        self, rank: int, values: Sequence[Any], nbytes: int = 8
    ) -> Generator[Event, Any, list[Any]]:
        """Each rank supplies one value per peer; receives one value from each peer."""
        if len(values) != self.size:
            raise SimMPIError(f"alltoall requires exactly {self.size} values per rank")

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            return lambda r: [contrib[peer][r] for peer in sorted(contrib)]

        result = yield from self._run_collective(
            rank, "alltoall", list(values), nbytes * self.size, build
        )
        return result

    # ------------------------------------------------------------------ #
    # RMA window allocation (collective, like MPI_Win_allocate)
    # ------------------------------------------------------------------ #

    def create_window(self, rank: int, size: int) -> Generator[Event, Any, Any]:
        """Collectively allocate an RMA window; every rank exposes ``size`` bytes.

        Ranks may expose different sizes (aggregators expose their buffers,
        other ranks expose nothing); all participants receive the *same*
        :class:`~repro.simmpi.rma.Window` object.
        """
        from repro.simmpi.rma import Window  # local import to avoid a cycle

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            sizes = {r: int(contrib[r]) for r in contrib}
            window = Window(self.world, self, sizes=sizes)
            return lambda r: window

        result = yield from self._run_collective(
            rank, "create_window", int(size), 16, build
        )
        return result

    # ------------------------------------------------------------------ #
    # Sub-communicators
    # ------------------------------------------------------------------ #

    def split(
        self, rank: int, color: int, key: int | None = None
    ) -> Generator[Event, Any, "Communicator"]:
        """Split into sub-communicators by ``color`` (collective).

        Ranks supplying the same ``color`` end up in the same communicator,
        ordered by ``key`` (default: their rank in the parent).
        """
        key = rank if key is None else key

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            groups: dict[int, list[tuple[int, int]]] = {}
            for r in sorted(contrib):
                c, k = contrib[r]
                groups.setdefault(c, []).append((k, r))
            comms: dict[int, Communicator] = {}
            for c, members in groups.items():
                ordered = [self.world_rank(r) for _k, r in sorted(members)]
                comms[c] = Communicator(
                    self.world, ordered, name=f"{self.name}.split({c})"
                )
            return lambda r, _comms=comms, _contrib=contrib: _comms[_contrib[r][0]]

        result = yield from self._run_collective(
            rank, "split", (color, key), 16, build
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} size={self.size}>"
