"""Per-object oracle for the segmented partitions.

:func:`repro.core.partitioning.build_partitions` returns every partition
as one :class:`~repro.core.partitioning.Partitions` offsets table.  Here
each partition is its own validated :class:`Partition`, built block by
block from :func:`repro.iolib.aggregators.partition_ranks`; :func:`split`
and :func:`join` convert between the two forms so tests compare them with
exact ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.partitioning import Partitions
from repro.iolib.aggregators import partition_ranks
from repro.utils.validation import require, require_positive


@dataclass(frozen=True, eq=False)
class Partition:
    """One aggregation partition: its index, ranks and aligned volumes."""

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
        return int(self.volumes.sum())

    @property
    def size(self) -> int:
        return len(self.ranks)

    def key(self) -> tuple:
        """Everything the partition holds, as plain values."""
        return (self.index, self.ranks.tolist(), self.volumes.tolist())


def build_partitions(
    workload, num_aggregators, *, machine=None, mapping=None, partition_by="contiguous"
) -> list[Partition]:
    """One :class:`Partition` per rank block, in ascending rank order."""
    require_positive(num_aggregators, "num_aggregators")
    num_ranks = workload.num_ranks
    volumes = workload.rank_bytes()
    if partition_by == "contiguous":
        return [
            Partition(index, np.arange(block.start, block.stop), volumes[block.start : block.stop])
            for index, block in enumerate(partition_ranks(num_ranks, num_aggregators))
        ]
    require(partition_by == "pset", f"unknown partition_by {partition_by!r}")
    groups = machine.partitions_of_nodes(mapping.nodes(np.arange(num_ranks)))
    order = np.argsort(groups, kind="stable")
    _ids, starts, counts = np.unique(groups[order], return_index=True, return_counts=True)
    per_group = max(1, num_aggregators // len(starts))
    partitions: list[Partition] = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        members = order[start : start + count]
        for block in partition_ranks(count, per_group):
            ranks = members[block.start : block.stop]
            partitions.append(Partition(len(partitions), ranks, volumes[ranks]))
    return partitions


def rank_owners(partitions: Sequence[Partition]) -> np.ndarray:
    """``owners[rank]``: index of the partition holding ``rank`` (-1: none)."""
    size = max(int(partition.ranks.max()) for partition in partitions) + 1
    owners = np.full(size, -1, dtype=np.int64)
    for partition in partitions:
        owners[partition.ranks] = partition.index
    return owners


def join(partitions: Sequence[Partition]) -> Partitions:
    """The segmented form of a partition list."""
    return Partitions.from_sizes(
        [partition.size for partition in partitions],
        np.concatenate([partition.ranks for partition in partitions]),
        np.concatenate([partition.volumes for partition in partitions]),
    )


def split(partitions: Partitions) -> list[Partition]:
    """One :class:`Partition` per segment of ``partitions``."""
    return [
        Partition(index, partitions.ranks_of(index), partitions.volumes_of(index))
        for index in range(len(partitions))
    ]
