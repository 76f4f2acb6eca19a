"""Baseline aggregator selection policies.

The MPI I/O implementations the paper compares against choose aggregators
without regard to data volumes or the full topology:

* **bridge-first / rank order** (MPICH on BG/Q): the first aggregator is the
  bridge node of the Pset, the remaining aggregators simply follow rank
  order — "This strategy takes into account neither the distance between the
  compute nodes and the storage system nor the amount of data exchanged"
  (Section IV-B);
* **rank order** (generic ROMIO / Cray MPI): aggregators are the first rank
  of every ``num_ranks / cb_nodes`` block;
* **random** — used in the ablation study as a worst-ish-case control.

All policies return *world ranks* (one aggregator per partition of ranks, in
partition order) so they can be compared one-for-one against the
topology-aware placement in :mod:`repro.core.placement`.
"""

from __future__ import annotations

import numpy as np

from repro.machine.machine import Machine
from repro.machine.mira import MiraMachine
from repro.topology.mapping import RankMapping
from repro.utils.rng import seeded_rng
from repro.utils.validation import require, require_positive


def partition_ranks(num_ranks: int, num_partitions: int) -> list[range]:
    """Split ranks into ``num_partitions`` contiguous blocks (first blocks larger).

    Contiguous rank blocks own contiguous file regions for all the paper's
    workloads, which is the partition definition TAPIOCA uses ("a subset of
    nodes hosting processes sharing a contiguous piece of data in file").
    """
    require_positive(num_ranks, "num_ranks")
    require_positive(num_partitions, "num_partitions")
    stops = np.cumsum(block_sizes([num_ranks], num_partitions)).tolist()
    return [range(start, stop) for start, stop in zip([0, *stops], stops)]


def block_sizes(counts: np.ndarray | list[int], blocks: int) -> np.ndarray:
    """Sizes of the contiguous blocks each group of ``counts`` ranks splits into.

    A group of ``count`` ranks splits into ``min(blocks, count)`` blocks, the
    first ones one rank larger; all groups at once, in group order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    per_group = np.minimum(counts, blocks)
    base, extra = np.divmod(counts, per_group)
    group = np.repeat(np.arange(counts.size), per_group)
    position = np.arange(group.size) - np.repeat(np.cumsum(per_group) - per_group, per_group)
    return base[group] + (position < extra[group])


def rank_order_aggregators(
    num_ranks: int, num_aggregators: int
) -> list[int]:
    """Generic ROMIO policy: the first rank of each contiguous rank block."""
    partitions = partition_ranks(num_ranks, num_aggregators)
    return [partition[0] for partition in partitions]


def bridge_first_aggregators(
    machine: Machine, mapping: RankMapping, num_aggregators: int
) -> list[int]:
    """MPICH-on-BG/Q policy: the bridge node's rank first, then rank order.

    For each partition, if a rank of the partition lives on a bridge node it
    becomes the aggregator; otherwise the partition's first rank is used.
    On machines without bridge nodes this degenerates to rank order.
    """
    require_positive(num_aggregators, "num_aggregators")
    if isinstance(machine, MiraMachine):
        bridge_nodes = machine.bridge_nodes()
    else:
        bridge_nodes = [gateway.node for gateway in machine.io_gateways()]
    bridge = np.flatnonzero(np.isin(mapping.node_array, bridge_nodes))
    sizes = block_sizes([mapping.num_ranks], num_aggregators)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    # A block's first bridge rank is the first bridge rank at or after its
    # start, when that falls before its end.
    first = np.append(bridge, stops[-1])[np.searchsorted(bridge, starts)]
    return np.where(first < stops, first, starts).tolist()


def random_aggregators(
    num_ranks: int, num_aggregators: int, *, seed: int | None = None
) -> list[int]:
    """One uniformly random aggregator per contiguous rank partition."""
    rng = seeded_rng(seed)
    partitions = partition_ranks(num_ranks, num_aggregators)
    return [int(partition[rng.integers(0, len(partition))]) for partition in partitions]


def select_default_aggregators(
    machine: Machine,
    mapping: RankMapping,
    num_aggregators: int,
    *,
    policy: str = "default",
    seed: int | None = None,
) -> list[int]:
    """Dispatch to the named baseline policy.

    Args:
        machine: the platform (used by the bridge-first policy).
        mapping: rank-to-node mapping.
        num_aggregators: number of aggregators (= partitions).
        policy: ``"default"`` (bridge-first on machines that expose
            gateways, rank order otherwise), ``"rank-order"`` or ``"random"``.
        seed: RNG seed for the random policy.
    """
    require(num_aggregators >= 1, "need at least one aggregator")
    if policy == "default":
        if machine.io_locality_known():
            return bridge_first_aggregators(machine, mapping, num_aggregators)
        return rank_order_aggregators(mapping.num_ranks, num_aggregators)
    if policy == "rank-order":
        return rank_order_aggregators(mapping.num_ranks, num_aggregators)
    if policy == "random":
        return random_aggregators(mapping.num_ranks, num_aggregators, seed=seed)
    raise ValueError(
        f"unknown aggregator policy {policy!r}; "
        "expected 'default', 'rank-order' or 'random'"
    )
