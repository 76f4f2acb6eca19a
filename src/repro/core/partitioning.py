"""Partitioning ranks for aggregation.

The paper calls a *partition* "a subset of nodes hosting processes sharing a
contiguous piece of data in file.  The number of aggregators defines the
partition size, each partition electing one aggregator among the processes."

For the workloads of the evaluation (IOR, HACC-IO) contiguous rank blocks own
contiguous file regions, so partitions are built as contiguous rank blocks —
either ``num_aggregators`` equal blocks (``partition_by="contiguous"``), or
aligned with the machine's I/O partitions (Psets on Mira,
``partition_by="pset"``) with the aggregators spread evenly across them.

Partitions hold their ranks and volumes as aligned int64 arrays, sliced from
the workload's :meth:`~repro.workloads.base.Workload.rank_bytes`, so building
them costs no per-rank Python work even at full-machine scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.iolib.aggregators import partition_ranks
from repro.machine.machine import Machine
from repro.topology.mapping import RankMapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Workload


@dataclass(frozen=True, eq=False)
class Partition:
    """One aggregation partition.

    Attributes:
        index: partition index (also the aggregator index).
        ranks: world ranks belonging to the partition, ascending (int64).
        volumes: bytes each member rank contributes (ω(i, A)), aligned with
            ``ranks`` (int64).  Negative volumes are rejected here, where
            they enter, naming the first such rank.
    """

    index: int
    ranks: np.ndarray
    volumes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", np.asarray(self.ranks, dtype=np.int64))
        object.__setattr__(self, "volumes", np.asarray(self.volumes, dtype=np.int64))
        require(self.ranks.size > 0, "a partition needs at least one rank")
        require(
            self.ranks.ndim == 1 and self.ranks.shape == self.volumes.shape,
            "volumes must be aligned with the partition ranks",
        )
        if self.volumes.min() < 0:
            first = int(np.flatnonzero(self.volumes < 0)[0])
            raise ValueError(
                f"volume of rank {int(self.ranks[first])} must be >= 0, "
                f"got {int(self.volumes[first])}"
            )

    @property
    def total_bytes(self) -> int:
        """Total bytes aggregated by this partition (ω(A, IO))."""
        return int(self.volumes.sum())

    @property
    def size(self) -> int:
        """Number of ranks in the partition."""
        return len(self.ranks)


def build_partitions(
    workload: Workload,
    num_aggregators: int,
    *,
    machine: Machine | None = None,
    mapping: RankMapping | None = None,
    partition_by: str = "contiguous",
) -> list[Partition]:
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
        volumes = workload.rank_bytes()
        return [
            Partition(
                index,
                np.arange(block.start, block.stop),
                volumes[block.start : block.stop],
            )
            for index, block in enumerate(partition_ranks(num_ranks, num_aggregators))
        ]
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
    _ids, starts, counts = np.unique(groups[order], return_index=True, return_counts=True)
    per_group = max(1, num_aggregators // len(starts))
    volumes = workload.rank_bytes()
    partitions: list[Partition] = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        members = order[start : start + count]
        for block in partition_ranks(count, per_group):
            ranks = members[block.start : block.stop]
            partitions.append(Partition(len(partitions), ranks, volumes[ranks]))
    return partitions


def rank_owners(partitions: Sequence[Partition]) -> np.ndarray:
    """``owners[rank]``: index of the partition holding ``rank`` (-1: none).

    Built once per partition list; the runtime and the tests look ranks up
    in it instead of scanning the partitions.
    """
    size = max(int(partition.ranks.max()) for partition in partitions) + 1
    owners = np.full(size, -1, dtype=np.int64)
    for partition in partitions:
        owners[partition.ranks] = partition.index
    return owners
