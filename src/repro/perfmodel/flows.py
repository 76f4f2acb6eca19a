"""Link-contention analysis by flow counting.

During the aggregation phase, every compute node ships its data to its
partition's aggregator.  The time this takes depends not only on the
hop-count and link bandwidth of each route (what the placement cost model
uses) but also on how many *other* flows squeeze through the same links.

This module counts, for a given set of ``sender node → aggregator node``
flows, how many aggregation streams traverse each link (using the
topology's deterministic routes) and derives per-aggregator contention
factors: the worst sharing factor seen by any link on the routes into that
aggregator.  A topology-aware placement that spreads aggregators produces
factors close to 1; the default rank-order placement that packs aggregators
onto neighbouring nodes (or onto the same dragonfly routers) produces larger
factors.

The routes come from :meth:`repro.topology.base.Topology.route_links` as one
matrix of integer link ids, so the whole analysis is a handful of array
reductions; ``tests/reference/flows.py`` keeps the route walk it equals.
:func:`analyze_jobs` serves many jobs from one routed matrix: every job's
flows are rows of one table, and both the per-aggregator analysis sample
and the per-job ledger sample are row selections of it.

Analyses are memoised on the topology, keyed by the pattern itself (its
``(aggregator, senders)`` pairs in order, and the sender cap), at most
:data:`_MAX_FLOW_CACHE` per topology (cleared wholesale when full).  This
memo lives as long as the topology, across evaluations, unlike the
per-evaluation aggregation memo of :mod:`repro.perfmodel.batch`.  The
analysis keeps the key's pairs as :attr:`FlowAnalysis.pattern`, so the
aggregation memo, which serves equal patterns from different keys (volumes
that elect alike), holds no copy of its own.
Multi-job binding reads and fills this memo for its analyses too (a job's
pattern may recur), but never memoises its link loads: allocation mappings
do not repeat, so those loads would only grow the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.partitioning import offsets_of
from repro.topology.base import Topology
from repro.utils.validation import require

#: Cap on memoised flow analyses per topology instance (cleared wholesale).
_MAX_FLOW_CACHE = 512

#: Cap on the number of sender→aggregator flows sampled per job for its
#: contention-ledger link weights (a uniform sample is taken above it).
MAX_SAMPLED_FLOWS = 512


@dataclass
class FlowAnalysis:
    """Result of the flow-counting pass.

    Attributes:
        aggregator_contention: worst link sharing factor on the incoming
            routes of each aggregator node.
        aggregator_distance: mean hop distance from an aggregator's senders.
        aggregator_min_bandwidth: narrowest link bandwidth on any incoming
            route of each aggregator (bytes/s).
        pattern: the analysed ``(aggregator, senders)`` pairs, the senders
            as tuples: the memo key's, so every user of an equal pattern
            shares this one copy.
    """

    aggregator_contention: dict[int, float] = field(default_factory=dict)
    aggregator_distance: dict[int, float] = field(default_factory=dict)
    aggregator_min_bandwidth: dict[int, float] = field(default_factory=dict)
    pattern: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def mean_contention(self) -> float:
        """The mean contention factor over aggregators (>= 1)."""
        if not self.aggregator_contention:
            return 1.0
        values = list(self.aggregator_contention.values())
        return sum(values) / len(values)


class LinkLoads(NamedTuple):
    """One job's sampled flows per link: link ids in first-traversal order,
    how many flows cross each, its bandwidth, and the number of flows."""

    ids: list[int]
    counts: list[int]
    bandwidths: list[float]
    flows: int


def analyze_flows(
    topology: Topology,
    senders_by_aggregator: dict[int, list[int]],
    *,
    max_senders_per_aggregator: int = 128,
) -> FlowAnalysis:
    """Count link sharing for the aggregation traffic pattern: the
    one-pattern call of :func:`analyze_jobs`.

    ``senders_by_aggregator`` maps each aggregator *node* to the *nodes*
    shipping data to it (self-flows touch no link and are ignored); above
    ``max_senders_per_aggregator`` senders a uniform sample is routed.  An
    aggregator's contention factor is the maximum, over the links of its
    incoming routes, of the number of distinct aggregators whose traffic
    crosses the link; its distance is the mean route hop count and its
    bandwidth the narrowest link on any incoming route.
    """
    return analyze_jobs(
        topology, [senders_by_aggregator], max_senders_per_aggregator=max_senders_per_aggregator
    )[0][0]


def analyze_jobs(
    topology: Topology,
    patterns: Sequence[dict[int, list[int]]],
    *,
    loads: bool = False,
    max_senders_per_aggregator: int = 128,
) -> tuple[list[FlowAnalysis], list[LinkLoads]]:
    """:func:`analyze_flows` of several jobs' patterns and, with ``loads``,
    their :class:`LinkLoads`, from one routing.

    Every job's remote flows are rows of one flow table.  Above the caps the
    analysis keeps an aggregator's rows ``int(i * step)``, ``i <
    max_senders_per_aggregator``, and the loads a job's rows ``int(i *
    step)``, ``i <`` :data:`MAX_SAMPLED_FLOWS` (``step`` the float ratio);
    one ``route_links`` call routes both row selections.  Contention counts
    only the aggregators of a link's own job.  Analyses are memoised on the
    topology (a pure function of the pattern), so tuning candidates and
    sweep points that differ only in buffer or stripe tunables pay once,
    and a batch routes only the misses' analysis rows.
    """
    require(all(patterns), "no aggregation flows to analyse")
    require(
        max_senders_per_aggregator >= 1,
        f"max_senders_per_aggregator must be >= 1, got {max_senders_per_aggregator}",
    )
    cache, cap = topology.__dict__.setdefault("_fp_flow_cache", {}), max_senders_per_aggregator
    keys = [(tuple((n, tuple(s)) for n, s in pattern.items()), cap) for pattern in patterns]
    analyses = [cache.get(key) for key in keys]
    if not loads and None not in analyses:
        return analyses, []
    aggregators = [node for pattern in patterns for node in pattern]
    sender_lists = [senders for pattern in patterns for senders in pattern.values()]
    count = len(aggregators)
    sizes = np.fromiter(map(len, sender_lists), dtype=np.int64, count=count)
    src = np.fromiter(chain.from_iterable(sender_lists), dtype=np.int64, count=int(sizes.sum()))
    group_job = np.repeat(np.arange(len(patterns)), [len(pattern) for pattern in patterns])
    owner = np.repeat(np.arange(count), sizes)
    dst = np.asarray(aggregators, dtype=np.int64)[owner]
    remote = src != dst
    src, dst, owner = src[remote], dst[remote], owner[remote]
    job = group_job[owner]
    missed = np.array([analysis is None for analysis in analyses])
    analysed = missed[job] & _sample(owner, count, cap)
    loaded = _sample(job, len(patterns), MAX_SAMPLED_FLOWS) if loads else np.zeros_like(analysed)
    routed = analysed | loaded
    links = topology.route_links(src[routed], dst[routed])
    width = int(links.max(initial=0)) + 1
    if missed.any():
        rows = links[analysed[routed]]
        src, dst, owner = src[analysed], dst[analysed], owner[analysed]
        valid = rows >= 0
        hops = valid.sum(axis=1)
        # One sort of ``(job, link, aggregator)`` keys leaves the distinct
        # (link, aggregator) pairs of each job grouped by (job, link); the
        # length of a run of pairs is the number of the job's aggregation
        # streams sharing the link.
        pair_owner = np.repeat(owner, hops)
        pair_keys = np.sort((group_job[pair_owner] * width + rows[valid]) * count + pair_owner)
        pairs = pair_keys[_run_starts(pair_keys)]
        pair_link = pairs // count
        run = np.cumsum(_run_starts(pair_link)) - 1
        contention = np.ones(count)
        np.maximum.at(contention, pairs - pair_link * count, np.bincount(run)[run])
        # Flows come in contiguous per-aggregator blocks (``owner`` ascends).
        routes = np.bincount(owner, minlength=count)
        distance = np.bincount(owner, weights=hops, minlength=count) / np.maximum(routes, 1)
        bandwidth = np.full(count, topology.link_bandwidth("default"))
        if src.size:
            active = routes > 0
            bandwidth[active] = np.minimum.reduceat(
                topology._batch_path_bandwidths(src, dst), (np.cumsum(routes) - routes)[active]
            )
        fresh = [values.tolist() for values in (contention, distance, bandwidth)]
        bounds = list(accumulate(map(len, patterns), initial=0))
        for index in np.flatnonzero(missed).tolist():
            lo, hi = bounds[index], bounds[index + 1]
            if len(cache) >= _MAX_FLOW_CACHE:
                cache.clear()
            analyses[index] = cache[keys[index]] = FlowAnalysis(
                *(dict(zip(aggregators[lo:hi], values[lo:hi])) for values in fresh),
                keys[index][0],
            )
    if not loads:
        return analyses, []
    # The loads: one np.unique of (job, link) keys over the ledger rows.
    rows, job = links[loaded[routed]], job[loaded]
    ids, first, counts = np.unique(
        (job[:, None] * width + rows)[rows >= 0], return_index=True, return_counts=True
    )
    order = np.argsort(first)
    owner, ids = np.divmod(ids[order], width)
    bounds = offsets_of(np.bincount(owner, minlength=len(patterns))).tolist()
    link_ids, link_counts = ids.tolist(), counts[order].tolist()
    bandwidths = topology._link_bandwidths(ids).tolist()
    flows = np.bincount(job, minlength=len(patterns)).tolist()
    return analyses, [
        LinkLoads(link_ids[lo:hi], link_counts[lo:hi], bandwidths[lo:hi], total)
        for lo, hi, total in zip(bounds, bounds[1:], flows)
    ]


def _sample(group: np.ndarray, count: int, cap: int) -> np.ndarray:
    """Row mask keeping each group's rows up to ``cap`` and, above it, rows
    ``start + int(i * (rows / cap))``, ``i < cap``; ``group`` ascends."""
    rows = np.bincount(group, minlength=count)
    over = rows > cap
    keep = ~over[group]
    if over.any():
        starts = (np.cumsum(rows) - rows)[over]
        picks = starts[:, None] + (np.arange(cap) * (rows[over] / cap)[:, None]).astype(
            np.int64
        )
        keep[picks.ravel()] = True
    return keep


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their
    predecessor (the first entry always does)."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts
