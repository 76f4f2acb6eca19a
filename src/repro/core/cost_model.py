"""The aggregator-placement cost model (paper, Section IV-B).

For one partition and one candidate aggregator ``A``:

* aggregation cost — the cost of every producer shipping its data to ``A``::

      C1 = Σ_{i ∈ V_C, i ≠ A}  ( l · d(i, A) + ω(i, A) / B_{i→A} )

* I/O cost — the cost of ``A`` shipping the aggregated data to the storage
  system's entry point ``IO``::

      C2 = l · d(A, IO) + ω(A, IO) / B_{A→IO}

* objective — ``TopoAware(A) = C1 + C2``, minimised over the candidates.

On platforms where the I/O node locality is not exposed (Theta), ``C2`` is
set to zero, exactly as the paper does.

:meth:`AggregationCostModel.elect` is the only code that computes C1 and
C2: it costs every candidate of a whole partition list at once (the
segmented election).  The partitions' offsets table becomes
:class:`CandidateSets`, grouped by candidate count, and each group is
evaluated as one stack of producer × candidate term tensors
(:meth:`AggregationCostModel.pair_terms`), in chunks of at most
:data:`_MAX_PAIR_CELLS` cells.  :meth:`AggregationCostModel.best_candidate`
elects each partition's minimum from those costs, and the
placement-optimisation problem (:mod:`repro.placement_opt.problem`) reads
the same term tensors.  The per-pair scalar loop survives only as the test
oracle ``tests/reference/cost_model.py``, which ``elect`` matches bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.core.partitioning import Partitions, offsets_of
from repro.core.topology_iface import TopologyInterface
from repro.obs import recorder as obs_recorder
from repro.utils.validation import require

#: Pair-tensor cells (partitions × producers × candidates) evaluated per
#: kernel call of the election: same-size partitions are stacked
#: ``_MAX_PAIR_CELLS // n²`` at a time, and a partition larger than the
#: budget is split into blocks of candidate columns, so peak memory stays
#: flat however many partitions a placement covers and however large.
_MAX_PAIR_CELLS = 1 << 17


@dataclass(frozen=True)
class CostBreakdown:
    """The two cost terms for one candidate aggregator.

    Attributes:
        candidate: candidate world rank.
        aggregation: C1, seconds.
        io: C2, seconds (0 when the I/O locality is unknown).
    """

    candidate: int
    aggregation: float
    io: float

    @property
    def total(self) -> float:
        """The objective value ``C1 + C2``."""
        return self.aggregation + self.io


@dataclass(frozen=True, eq=False)
class CandidateSets:
    """Every partition's election candidates, flattened partition by partition.

    Partition ``p`` owns the slice ``offsets[p]:offsets[p + 1]`` of every
    array.  Its candidates are also its producers, listed in the order C1
    adds their terms.  At ``"rank"`` granularity they are the partition's
    ranks as given.  At ``"node"`` granularity there is one per node: the
    node's lowest rank represents it and carries the integer sum of its
    ranks' bytes, in ascending representative order.  The cost model only
    depends on nodes and per-node volumes, so ``"node"`` evaluates the same
    objective with quadratically fewer producer × candidate pairs.

    Attributes:
        offsets: int64 segment bounds, ``len(partitions) + 1`` entries.
        ranks: candidate world ranks.
        nodes: the node hosting each candidate.
        volumes: int64 bytes each candidate produces.
    """

    offsets: np.ndarray
    ranks: np.ndarray
    nodes: np.ndarray
    volumes: np.ndarray

    @classmethod
    def of(
        cls,
        partitions: Partitions,
        iface: TopologyInterface,
        granularity: str = "rank",
    ) -> "CandidateSets":
        """The candidates of ``partitions``, from one node gather."""
        require(
            granularity in ("rank", "node"),
            f"granularity must be 'rank' or 'node', got {granularity!r}",
        )
        nodes = iface.rank_nodes(partitions.ranks)
        if granularity == "rank":
            return cls(partitions.offsets, partitions.ranks, nodes, partitions.volumes)
        return cls.by_node(partitions, nodes)

    @classmethod
    def by_node(cls, partitions: Partitions, nodes: np.ndarray) -> "CandidateSets":
        """Node-granularity candidates of ``partitions`` (``nodes``: the node
        of every entry of its ``ranks``).  For a stacked table of several
        jobs (:meth:`~repro.core.partitioning.Partitions.stack`) each job's
        slice equals its own table's candidates."""
        sizes, ranks, volumes = partitions.sizes, partitions.ranks, partitions.volumes
        # One stable sort over (partition, node) keys puts each partition's
        # ranks on a node next to each other; the runs collapse to one
        # candidate each (lowest rank, integer volume sum).
        span = int(nodes.max()) + 1
        keys = np.repeat(np.arange(sizes.size), sizes) * span + nodes
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        representatives = np.minimum.reduceat(ranks[order], starts)
        sums = np.add.reduceat(volumes[order], starts)
        segments, unit_nodes = np.divmod(keys[starts], span)
        order = np.lexsort((representatives, segments))
        return cls(
            offsets_of(np.bincount(segments, minlength=sizes.size)),
            representatives[order],
            unit_nodes[order],
            sums[order],
        )

    def take(self, segments: np.ndarray) -> tuple["CandidateSets", np.ndarray]:
        """The candidate sets of partitions ``segments`` (in that order), and
        the flat index in ``self`` of each of their candidates."""
        sizes = np.diff(self.offsets)[segments]
        offsets = offsets_of(sizes)
        index = np.repeat(self.offsets[segments] - offsets[:-1], sizes) + np.arange(offsets[-1])
        ranks, nodes, volumes = self.ranks[index], self.nodes[index], self.volumes[index]
        return CandidateSets(offsets, ranks, nodes, volumes), index

    def __len__(self) -> int:
        """Number of candidates, over all partitions."""
        return int(self.ranks.size)

    @cached_property
    def segments(self) -> np.ndarray:
        """Partition position of every candidate."""
        return np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))

    def totals(self, values: np.ndarray) -> np.ndarray:
        """Per-partition sums of a per-candidate array."""
        return np.add.reduceat(values, self.offsets[:-1])

    def argmin(self, values: np.ndarray) -> np.ndarray:
        """Flat index of each partition's smallest value.

        Ties go to the lowest rank, as ``MPI_Allreduce(MINLOC)`` breaks them.
        """
        return np.lexsort((self.ranks, values, self.segments))[self.offsets[:-1]]

    def chunks(
        self, chosen: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(producers, candidates)`` flat-index matrices, one pair per chunk.

        ``producers`` has shape ``(G, n)``: ``G`` partitions of ``n``
        candidates each.  ``candidates`` is a block of its columns, or the
        single column ``chosen`` names for each of those partitions, so a
        chunk spans at most :data:`_MAX_PAIR_CELLS` producer × candidate
        cells (at least one column of one partition).
        """
        sizes = np.diff(self.offsets)
        order = np.argsort(sizes, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
            n = int(sizes[group[0]])
            width = 1 if chosen is not None else max(1, min(n, _MAX_PAIR_CELLS // n))
            step = max(1, _MAX_PAIR_CELLS // (n * width))
            for start in range(0, group.size, step):
                block = group[start : start + step]
                rows = self.offsets[block, None] + np.arange(n)
                if chosen is not None:
                    yield rows, chosen[block, None]
                    continue
                for first in range(0, n, width):
                    yield rows, rows[:, first : first + width]


class AggregationCostModel:
    """Evaluates the paper's objective function through a topology interface.

    Args:
        iface: the topology abstraction for the machine + mapping.
    """

    def __init__(self, iface: TopologyInterface) -> None:
        self.iface = iface

    def pair_terms(
        self, sets: CandidateSets, rows: np.ndarray, columns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(l·d, ω/B)`` term tensors of one chunk of ``sets``.

        ``rows`` and ``columns`` are a chunk of :meth:`CandidateSets.chunks`
        (the rows possibly reordered); both tensors have shape
        ``(G, producers, candidates)``, from one
        :meth:`~repro.core.topology_iface.TopologyInterface.pair_metrics`
        gather.  Each candidate's own term is zeroed in both, since it ships
        nothing to itself (adding ``+0.0`` to a non-negative sum is exact).
        """
        hops, bandwidths = self.iface.pair_metrics(
            sets.nodes[rows], sets.nodes[columns]
        )
        latency = self.iface.get_latency() * hops
        transfer = sets.volumes[rows][:, :, None] / bandwidths
        own = rows[:, :, None] == columns[:, None, :]
        latency[own] = 0.0
        transfer[own] = 0.0
        return latency, transfer

    def chunk_terms(
        self, sets: CandidateSets, chosen: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(rows, columns, latency, transfer)`` of every chunk of
        :meth:`CandidateSets.chunks` with more than one producer (a lone
        candidate ships nothing: its C1 is 0), from one :meth:`pair_terms`
        gather each."""
        for rows, columns in sets.chunks(chosen):
            if rows.shape[1] > 1:
                yield (rows, columns, *self.pair_terms(sets, rows, columns))

    def elect(
        self,
        sets: CandidateSets,
        chosen: np.ndarray | None = None,
        *,
        each_chunk: Callable[..., None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(C1, C2)`` of every candidate in ``sets``, aligned with it.

        The segmented election: per chunk of same-size partitions
        (:meth:`chunk_terms`), the :meth:`pair_terms` tensors are added term
        by term into ``l·d + ω/B`` and ``np.add.accumulate`` along the
        producer axis sums each candidate's terms strictly left to right
        (``np.sum`` would add pairwise and round differently).  C2 is a
        gather over the candidates' I/O distances and bandwidths.

        Args:
            sets: the partitions' candidates.
            chosen: optional flat index of one candidate per partition;
                only those are costed, and the arrays are aligned with
                ``chosen`` instead.
            each_chunk: called with every chunk's ``(rows, columns,
                latency, transfer)`` after it is costed, for a caller that
                reads the same tensors (the placement certificate).
        """
        aggregation = np.zeros(sets.ranks.size)
        for rows, columns, latency, transfer in self.chunk_terms(sets, chosen):
            aggregation[columns] = np.add.accumulate(latency + transfer, axis=1)[:, -1, :]
            if each_chunk is not None:
                each_chunk(rows, columns, latency, transfer)
        io = np.zeros(sets.ranks.size)
        if self.iface.io_locality_known():
            io_bytes = sets.totals(sets.volumes)[sets.segments]
            io = (
                self.iface.get_latency() * self.iface.io_distances(sets.nodes)
                + io_bytes / self.iface.io_bandwidths(sets.nodes)
            )
        if chosen is not None:
            return aggregation[chosen], io[chosen]
        return aggregation, io

    def best_candidate(
        self, sets: CandidateSets, *, each_chunk: Callable[..., None] | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Each partition's winner and the ``(C1, C2)`` of every candidate.

        The winner is the flat index into ``sets`` of the partition's
        smallest ``C1 + C2``; ties go to the lowest rank, as
        ``MPI_Allreduce(MINLOC)`` breaks them.  ``each_chunk`` is passed to
        :meth:`elect`.
        """
        aggregation, io = self.elect(sets, each_chunk=each_chunk)
        rec = obs_recorder()
        if rec is not None:
            rec.inc("costmodel.candidates", len(sets))
        return sets.argmin(aggregation + io), (aggregation, io)
