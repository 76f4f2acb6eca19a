"""Simulated MPI communicators: the collectives TAPIOCA and ROMIO call.

The communicator implements exactly the subset of MPI that TAPIOCA and the
ROMIO two-phase baseline rely on:

* ``split`` to derive sub-communicators (one per aggregation partition);
* ``allreduce`` with the ``minloc`` operation (the aggregator election);
* ``create_window`` (``MPI_Win_allocate``) for the aggregation buffers;
* ``allgather`` and ``barrier`` (the two-phase offset exchange and call
  boundaries; RMA fences are barriers too).

All ranks of a communicator must call collectives in the same order — this
is checked and a :class:`~repro.simmpi.errors.SimMPIError` is raised on a
mismatch, which turns a silent deadlock into a clear test failure.

Timing model: a collective costs ``ceil(log2(P))`` steps, each of which
moves its payload over the communicator's average hop distance
(:meth:`~repro.simmpi.world.SimWorld.collective_step_cost`).

Event ordering.  A collective has one completion event that every
participant waits on; processing it resumes the participants in arrival
order.  The last arrival releases it through two plain heap entries: one
now, which schedules one at ``now + cost``, which triggers the completion.
These take exactly the ``(time, seq)`` slots of a release process's
bootstrap and timeout, and the completion takes the ``seq`` the first of
``P`` per-rank completion events would have had, so every simulated time
equals that of a per-rank release.  A rank that passes through ``count``
consecutive barriers (``barrier(rank, count)``, which RMA fences use for
ranks idle between epochs) is not resumed in between: each completion's
callback enters the next barrier at the callback position where the rank's
own resume would have entered it, so arrivals keep their order.
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
    """The one MPI_Op a caller passes: ``minloc``, the aggregator election."""

    MINLOC = "minloc"

    @classmethod
    def combine(cls, op: str, values: Sequence[Any]) -> Any:
        """Combine per-rank contributions with the named operation.

        ``minloc`` expects ``(value, location)`` pairs and returns the pair
        with the smallest value (ties resolved towards the smallest
        location, as MPI does).
        """
        if not values:
            raise SimMPIError("cannot reduce an empty value list")
        if op != cls.MINLOC:
            raise SimMPIError(f"unknown reduction operation {op!r}")
        pairs = [tuple(v) for v in values]
        for pair in pairs:
            if len(pair) != 2:
                raise SimMPIError(
                    f"{op} requires (value, location) pairs, got {pair!r}"
                )
        return min(pairs, key=lambda p: (p[0], p[1]))


@dataclass(slots=True)
class _CollectiveSlot:
    """Rendezvous state for one collective call instance."""

    name: str
    #: The one event every participant waits on; its value maps a rank to
    #: that rank's result.
    completion: Event
    nbytes: int
    contributions: dict[int, Any] = field(default_factory=dict)


def _no_result(_contributions: dict[int, Any]) -> Callable[[int], None]:
    return _none_for_rank


def _none_for_rank(_rank: int) -> None:
    return None


class _PassThrough(Event):
    """What a rank waits on while it passes through consecutive barriers.

    Each barrier's completion callback enters the next barrier for the rank;
    the last barrier's completion resumes the rank's process directly.  A
    barrier entry that fails (a collective mismatch) is thrown into the
    rank's process at that same callback position.
    """

    __slots__ = ("_comm", "_rank", "_remaining", "_current", "_waiter")

    def __init__(self, comm: "Communicator", rank: int, count: int, first: Event) -> None:
        super().__init__(comm.world.env)
        self._comm = comm
        self._rank = rank
        self._remaining = count - 1
        self._current = first
        self._waiter: Callable[[Event], None] | None = None

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        self._waiter = callback
        self._current.add_callback(self._enter_next)

    def _enter_next(self, event: Event) -> None:
        if not event.ok:
            self._waiter(event)
            return
        try:
            self._current = self._comm._enter_collective(
                self._rank, "barrier", None, 0, _no_result
            )
        except SimMPIError as exc:
            # Fail in place, where the rank's own resume would have raised.
            self.ok, self.value = False, exc
            self._waiter(self)
            return
        self._remaining -= 1
        self._current.add_callback(self._waiter if self._remaining == 0 else self._enter_next)


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
        #: Number of ranks in the communicator.
        self.size = len(self.world_ranks)
        self._nodes = tuple(world.node_of_rank(wr) for wr in self.world_ranks)
        self._rank_of_world = {wr: r for r, wr in enumerate(self.world_ranks)}
        # Collective bookkeeping: per-rank call counters + active slots.
        self._collective_counter = [0] * self.size
        self._collective_slots: dict[int, _CollectiveSlot] = {}
        #: Sampled mean hop distance between member nodes, set by the world
        #: the first time a collective on this communicator is priced.
        self.mean_hops: float | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def world_rank(self, rank: int) -> int:
        """World rank of communicator rank ``rank``."""
        self._validate_rank(rank)
        return self.world_ranks[rank]

    def comm_rank_of_world(self, world_rank: int) -> int:
        """Communicator rank of a world rank (KeyError if not a member)."""
        return self._rank_of_world[world_rank]

    def node_of(self, rank: int) -> int:
        """Compute node hosting communicator rank ``rank``."""
        return self._nodes[self._validate_rank(rank)]

    def _validate_rank(self, rank: int, name: str = "rank") -> int:
        if not 0 <= rank < self.size:
            raise SimMPIError(
                f"{name} {rank} out of range for communicator {self.name!r} "
                f"of size {self.size}"
            )
        return rank

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
        self,
        rank: int,
        name: str,
        value: Any,
        nbytes: int,
        result_builder: Callable[[dict[int, Any]], Callable[[int], Any]],
    ) -> Event:
        """Register a rank's arrival at its next collective; returns its completion.

        The last arrival builds the per-rank results and schedules the
        release (see the module docstring for the slots it takes).  A
        malformed collective (e.g. a ``minloc`` contribution that is not a
        pair) fails every participant rather than deadlocking the others.
        """
        self._validate_rank(rank)
        seq = self._collective_counter[rank]
        self._collective_counter[rank] = seq + 1
        slot = self._collective_slots.get(seq)
        if slot is None:
            slot = _CollectiveSlot(name, Event(self.world.env), nbytes)
            self._collective_slots[seq] = slot
        elif slot.name != name:
            raise SimMPIError(
                f"collective mismatch on {self.name!r}: rank {rank} called "
                f"{name!r} while others called {slot.name!r}"
            )
        elif nbytes > slot.nbytes:
            slot.nbytes = nbytes
        slot.contributions[rank] = value
        completion = slot.completion
        if len(slot.contributions) == self.size:
            del self._collective_slots[seq]
            try:
                result_for_rank = result_builder(slot.contributions)
            except Exception as exc:
                completion.fail(exc)
            else:
                env = self.world.env
                cost = self._collective_cost(slot.nbytes)
                env.call_later(
                    0.0,
                    lambda: env.call_later(cost, lambda: completion.succeed(result_for_rank)),
                )
        return completion

    def _run_collective(
        self,
        rank: int,
        name: str,
        value: Any,
        nbytes: int,
        result_builder: Callable[[dict[int, Any]], Callable[[int], Any]],
    ) -> Generator[Event, Any, Any]:
        result_for_rank = yield self._enter_collective(rank, name, value, nbytes, result_builder)
        return result_for_rank(rank)

    def barrier(self, rank: int, count: int = 1) -> Generator[Event, Any, None]:
        """Synchronise all ranks of the communicator.

        ``count > 1`` passes through that many consecutive barriers and
        resumes the rank only after the last one; the other ranks see
        ``count`` ordinary barriers.
        """
        if count == 1:
            return self._run_collective(rank, "barrier", None, 0, _no_result)
        if count < 1:
            raise SimMPIError(f"barrier count must be >= 1, got {count}")
        return self._pass_through(rank, count)

    def _pass_through(self, rank: int, count: int) -> Generator[Event, Any, None]:
        first = self._enter_collective(rank, "barrier", None, 0, _no_result)
        yield _PassThrough(self, rank, count, first)

    def allreduce(
        self, rank: int, value: Any, op: str = ReduceOp.MINLOC, nbytes: int = 8
    ) -> Generator[Event, Any, Any]:
        """Reduce and deliver the result to every rank.

        With ``op="minloc"`` and ``value=(cost, rank)`` pairs this is exactly
        the aggregator election of the paper (Section IV-B).
        """

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            combined = ReduceOp.combine(op, [contrib[r] for r in sorted(contrib)])
            return lambda r: combined

        return self._run_collective(rank, f"allreduce:{op}", value, nbytes, build)

    def allgather(
        self, rank: int, value: Any, nbytes: int = 8
    ) -> Generator[Event, Any, list[Any]]:
        """Gather per-rank values and deliver the full list to every rank."""

        def build(contrib: dict[int, Any]) -> Callable[[int], Any]:
            ordered = [contrib[r] for r in sorted(contrib)]
            return lambda r: list(ordered)

        return self._run_collective(rank, "allgather", value, nbytes, build)

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
            window = Window(self.world, self, sizes)
            return lambda r: window

        return self._run_collective(
            rank, "create_window", int(size), 16, build
        )

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

        return self._run_collective(
            rank, "split", (color, key), 16, build
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} size={self.size}>"
