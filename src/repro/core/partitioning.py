"""Partitioning ranks for aggregation.

The paper calls a *partition* "a subset of nodes hosting processes sharing a
contiguous piece of data in file.  The number of aggregators defines the
partition size, each partition electing one aggregator among the processes."

For the workloads of the evaluation (IOR, HACC-IO) contiguous rank blocks own
contiguous file regions, so partitions are built as contiguous rank blocks —
either ``num_aggregators`` equal blocks (``partition_by="contiguous"``), or
aligned with the machine's I/O partitions (Psets on Mira,
``partition_by="pset"``) with the aggregators spread evenly across them.

All partitions are one segmented array, :class:`Partitions`: every
partition's ranks concatenated, their int64 volumes (from the workload's
:meth:`~repro.workloads.base.Workload.rank_bytes`) alongside, and an int64
``offsets`` table of ``len(partitions) + 1`` bounds::

    offsets  [0,        3,        6,     8]
    ranks    [0  1  2 | 3  4  5 | 6  7]        partition 1 = ranks[3:6]
    volumes  [v0 v1 v2| v3 v4 v5| v6 v7]

The partition index is also the aggregator index.  A multi-job run
stacks its jobs' tables into one (:meth:`Partitions.stack`), building each
distinct shape (rank count and contiguous block count) once and giving
every job its own volumes.  The arrays are
validated once, where they are built, with no per-partition or per-rank
Python work; the election (:class:`~repro.core.cost_model.CandidateSets`),
the analytic model and the round schedule
(:func:`repro.core.aggregation.build_schedule`) read them by partition id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.iolib.aggregators import block_sizes
from repro.machine.machine import Machine
from repro.topology.mapping import RankMapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Workload


def offsets_of(sizes: np.ndarray) -> np.ndarray:
    """Segment bounds ``[0, s0, s0 + s1, ...]`` of consecutive segment sizes."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class Partitions:
    """Every aggregation partition, as one segmented array.

    Attributes:
        offsets: int64 segment bounds, ``len(partitions) + 1`` entries from
            0; partition ``p`` owns entries ``offsets[p]:offsets[p + 1]``.
        ranks: the world ranks of every partition, concatenated (int64).
        volumes: bytes each rank contributes (ω(i, A)), aligned with
            ``ranks`` (int64).  Negative volumes are rejected here, where
            they enter, naming the first such rank.
    """

    offsets: np.ndarray
    ranks: np.ndarray
    volumes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("offsets", "ranks", "volumes"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        offsets, ranks, volumes = self.offsets, self.ranks, self.volumes
        require(
            ranks.ndim == 1 and ranks.shape == volumes.shape,
            "volumes must be aligned with the partition ranks",
        )
        require(
            offsets.ndim == 1
            and offsets.size > 0
            and offsets[0] == 0
            and offsets[-1] == ranks.size,
            "offsets must run from 0 to the number of partition ranks",
        )
        require(bool((offsets[1:] > offsets[:-1]).all()), "a partition needs at least one rank")
        if volumes.size and volumes.min() < 0:
            first = int(np.flatnonzero(volumes < 0)[0])
            raise ValueError(
                f"volume of rank {int(ranks[first])} must be >= 0, "
                f"got {int(volumes[first])}"
            )

    @classmethod
    def from_sizes(cls, sizes, ranks, volumes) -> "Partitions":
        """Partitions holding the next ``sizes[p]`` entries of ``ranks``."""
        return cls(offsets_of(sizes), ranks, volumes)

    @classmethod
    def stack(cls, tables: Sequence["Partitions"], volumes: np.ndarray) -> "Partitions":
        """Several jobs' partitions as one table, job after job, with
        ``volumes`` (every job's, concatenated) in place of the tables' own:
        each job's ranks keep their own numbering, and jobs whose partitions
        share offsets and ranks share one table."""
        return cls.from_sizes(
            np.concatenate([table.sizes for table in tables]),
            np.concatenate([table.ranks for table in tables]),
            volumes,
        )

    def __len__(self) -> int:
        """Number of partitions."""
        return self.offsets.size - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        """Number of ranks of every partition."""
        return np.diff(self.offsets)

    @cached_property
    def segments(self) -> np.ndarray:
        """Partition index of every entry of ``ranks``."""
        return np.repeat(np.arange(len(self)), self.sizes)

    @cached_property
    def owners(self) -> np.ndarray:
        """``owners[rank]``: index of the partition holding ``rank`` (-1: none)."""
        owners = np.full(int(self.ranks.max(initial=-1)) + 1, -1, dtype=np.int64)
        owners[self.ranks] = self.segments
        return owners

    def totals(self) -> np.ndarray:
        """Total bytes aggregated by every partition (ω(A, IO))."""
        return np.diff(offsets_of(self.volumes)[self.offsets])

    def ranks_of(self, index: int) -> np.ndarray:
        """The ranks of partition ``index``."""
        return self.ranks[self.offsets[index] : self.offsets[index + 1]]

    def volumes_of(self, index: int) -> np.ndarray:
        """The volumes of partition ``index``, aligned with :meth:`ranks_of`."""
        return self.volumes[self.offsets[index] : self.offsets[index + 1]]


def build_partitions(
    workload: Workload,
    num_aggregators: int,
    *,
    machine: Machine | None = None,
    mapping: RankMapping | None = None,
    partition_by: str = "contiguous",
) -> Partitions:
    """Split the workload's ranks into aggregation partitions.

    Args:
        workload: the declared I/O workload (provides per-rank volumes).
        num_aggregators: number of partitions to build.
        machine: required for ``partition_by="pset"``.
        mapping: rank-to-node mapping, required for ``partition_by="pset"``.
        partition_by: ``"contiguous"`` or ``"pset"``.

    Returns:
        Partitions in ascending rank order; their union is exactly the
        workload's ranks and they are pairwise disjoint.
    """
    require_positive(num_aggregators, "num_aggregators")
    num_ranks = workload.num_ranks
    if partition_by == "contiguous":
        return Partitions.from_sizes(
            block_sizes([num_ranks], num_aggregators),
            np.arange(num_ranks),
            workload.rank_bytes(),
        )
    if partition_by != "pset":
        raise ValueError(
            f"partition_by must be 'contiguous' or 'pset', got {partition_by!r}"
        )
    if machine is None or mapping is None:
        raise ValueError("partition_by='pset' requires machine and mapping")
    # Group ranks by the machine's I/O partition of their node, then split
    # each group into its share of the aggregators.
    groups = machine.partitions_of_nodes(mapping.nodes(np.arange(num_ranks)))
    order = np.argsort(groups, kind="stable")
    _ids, counts = np.unique(groups[order], return_counts=True)
    per_group = max(1, num_aggregators // counts.size)
    return Partitions.from_sizes(
        block_sizes(counts, per_group), order, workload.rank_bytes()[order]
    )
