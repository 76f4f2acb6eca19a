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

Event ordering.  A collective instance is one slot keyed by its sequence
number on the communicator; a barrier's slot only counts arrivals, the
other collectives keep each rank's contribution for their result builder.
Every participant waits on the slot's one completion event, whose processing
resumes them in arrival order.  The last arrival releases it through two
plain heap entries: one now, which schedules one at ``now + cost``, which
triggers the completion.  These take exactly the ``(time, seq)`` slots of a
release process's bootstrap and timeout, and the completion takes the
``seq`` the first of ``P`` per-rank completion events would have had, so
every simulated time equals that of a per-rank release.

A rank that passes through ``count`` consecutive barriers
(``barrier(rank, count)``, which RMA fences use for ranks idle between
epochs) is not resumed in between.  It joins a *bundle*: one callback of a
barrier's completion standing for a run of consecutive pass-through ranks.
When the completion is processed, the bundle enters the next barrier for
all its members at once, at the callback position where their own resumes
would have entered it one by one, so every member keeps its arrival
position: who arrives last, which ``(time, seq)`` slot the release takes
and the resume order all stay those of separate barriers.  A bundle that
lands right behind another one on the next completion merges with it; a
member whose run ends splits the bundle there and is resumed in its place.
A member entering a barrier whose slot belongs to another collective fails
in place, each member in arrival order, as its own entry would have.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Callable, Generator, Sequence, TYPE_CHECKING

from repro.simmpi.engine import Event, Outcome
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


class _CollectiveSlot:
    """Rendezvous state for one collective call instance."""

    __slots__ = ("name", "completion", "nbytes", "arrived", "contributions")

    def __init__(self, name: str, completion: Event, nbytes: int, barrier: bool) -> None:
        self.name = name
        #: The one event every participant waits on; a barrier's value is
        #: ``None``, another collective's maps a rank to that rank's result.
        self.completion = completion
        self.nbytes = nbytes
        self.arrived = 0
        #: ``{rank: value}`` of a collective with a result; ``None`` on a barrier.
        self.contributions: dict[int, Any] | None = None if barrier else {}


class _Bundle:
    """Consecutive pass-through ranks: one callback of a barrier's completion.

    ``seq`` is the barrier whose completion the bundle waits on; member
    ``i`` is communicator rank ``ranks[i]``, whose run of barriers ends at
    barrier ``ends[i]``, after which ``waiters[i]`` resumes its process.
    """

    __slots__ = ("comm", "seq", "ranks", "ends", "waiters", "first_end")

    def __init__(
        self,
        comm: "Communicator",
        seq: int,
        ranks: list[int],
        ends: list[int],
        waiters: list[Callable[[Any], None]],
    ) -> None:
        self.comm = comm
        self.seq = seq
        self.ranks = ranks
        self.ends = ends
        self.waiters = waiters
        #: The earliest barrier any member's run ends at.
        self.first_end = min(ends)

    def __call__(self, completion: Event) -> None:
        seq = self.seq
        comm = self.comm
        if self.first_end != seq:
            comm._pass_on(self)
            return
        ranks, ends, waiters = self.ranks, self.ends, self.waiters
        counter = comm._collective_counter
        start = 0
        for _ in range(ends.count(seq)):
            stop = ends.index(seq, start)
            if stop > start:
                comm._pass_on(
                    _Bundle(comm, seq, ranks[start:stop], ends[start:stop], waiters[start:stop])
                )
            counter[ranks[stop]] = seq + 1
            waiters[stop](completion)
            start = stop + 1
        if start < len(ranks):
            comm._pass_on(_Bundle(comm, seq, ranks[start:], ends[start:], waiters[start:]))


class _PassThrough(Event):
    """What a rank yields to pass through barriers up to barrier ``end``.

    The process's ``add_callback`` makes the rank a one-member bundle on the
    completion of the barrier it has just entered.
    """

    __slots__ = ("_comm", "_rank", "_seq", "_end", "_completion")

    def __init__(self, comm: "Communicator", rank: int, seq: int, end: int, completion: Event):
        self._callbacks = ()  # pending: the process registers its resume
        self._comm = comm
        self._rank = rank
        self._seq = seq
        self._end = end
        self._completion = completion

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        self._comm._join(
            self._completion, _Bundle(self._comm, self._seq, [self._rank], [self._end], [callback])
        )


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
        # Weak, so a finished world is freed by reference counting rather
        # than by a later cycle collection (the world holds COMM_WORLD).
        self._world = weakref.ref(world)
        self._env = world.env
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
        #: Cost of one barrier, priced at the first barrier release.
        self._barrier_cost: float | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def world(self) -> "SimWorld":
        """The simulation world the communicator belongs to."""
        return self._world()

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

    def _arrive(self, seq: int, rank: int, name: str, nbytes: int) -> _CollectiveSlot:
        """Count ``rank``'s arrival at collective ``seq``; returns its slot.

        The first arrival creates the slot.  Raises :class:`SimMPIError`
        when ``rank`` calls ``name`` where others called another collective.
        """
        slot = self._collective_slots.get(seq)
        if slot is None:
            slot = _CollectiveSlot(name, Event(self._env), nbytes, name == "barrier")
            self._collective_slots[seq] = slot
        elif slot.name != name:
            raise self._mismatch(rank, name, slot)
        elif nbytes > slot.nbytes:
            slot.nbytes = nbytes
        slot.arrived += 1
        return slot

    def _mismatch(self, rank: int, name: str, slot: _CollectiveSlot) -> SimMPIError:
        return SimMPIError(
            f"collective mismatch on {self.name!r}: rank {rank} called "
            f"{name!r} while others called {slot.name!r}"
        )

    def _release(self, seq: int, slot: _CollectiveSlot, value: Any = None) -> None:
        """Schedule the completion of a collective every rank has entered."""
        del self._collective_slots[seq]
        if slot.contributions is None:
            if self._barrier_cost is None:
                self._barrier_cost = self._collective_cost(0)
            cost = self._barrier_cost
        else:
            cost = self._collective_cost(slot.nbytes)
        env = self._env
        completion = slot.completion
        env.call_later(0.0, lambda: env.call_later(cost, lambda: completion.succeed(value)))

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
        slot = self._arrive(seq, rank, name, nbytes)
        slot.contributions[rank] = value
        if slot.arrived == self.size:
            try:
                result_for_rank = result_builder(slot.contributions)
            except Exception as exc:
                del self._collective_slots[seq]
                slot.completion.fail(exc)
            else:
                self._release(seq, slot, result_for_rank)
        return slot.completion

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
        self._validate_rank(rank)
        if count < 1:
            raise SimMPIError(f"barrier count must be >= 1, got {count}")
        return self._barrier(rank, count)

    def _barrier(self, rank: int, count: int) -> Generator[Event, Any, None]:
        seq = self._collective_counter[rank]
        self._collective_counter[rank] = seq + 1
        slot = self._arrive(seq, rank, "barrier", 0)
        if slot.arrived == self.size:
            self._release(seq, slot)
        if count == 1:
            yield slot.completion
        else:
            yield _PassThrough(self, rank, seq, seq + count - 1, slot.completion)

    def _join(self, completion: Event, bundle: _Bundle) -> None:
        """Make ``bundle`` the next callback of ``completion``; it merges
        into the last callback when that is a bundle too."""
        callbacks = completion._callbacks
        last = callbacks[-1] if callbacks else None
        if last.__class__ is _Bundle:
            last.ranks += bundle.ranks
            last.ends += bundle.ends
            last.waiters += bundle.waiters
            if bundle.first_end < last.first_end:
                last.first_end = bundle.first_end
        else:
            callbacks.append(bundle)

    def _pass_on(self, bundle: _Bundle) -> None:
        """Enter the barrier after ``bundle.seq`` for every member of ``bundle``."""
        seq = bundle.seq + 1
        slot = self._collective_slots.get(seq)
        if slot is not None and slot.contributions is not None:
            # Fail in place, in arrival order, as each member's entry would.
            for rank, waiter in zip(bundle.ranks, bundle.waiters):
                self._collective_counter[rank] = seq + 1
                waiter(Outcome(False, self._mismatch(rank, "barrier", slot)))
            return
        if slot is None:
            slot = _CollectiveSlot("barrier", Event(self._env), 0, True)
            self._collective_slots[seq] = slot
        slot.arrived += len(bundle.ranks)
        bundle.seq = seq
        self._join(slot.completion, bundle)
        if slot.arrived == self.size:
            self._release(seq, slot)

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
