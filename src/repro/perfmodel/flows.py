"""Link-contention analysis by flow counting.

During the aggregation phase, every compute node ships its data to its
partition's aggregator.  The time this takes depends not only on the
hop-count and link bandwidth of each route (what the placement cost model
uses) but also on how many *other* flows squeeze through the same links.

This module counts, for a given set of ``sender node → aggregator node``
flows, how many flows traverse each link (using the topology's deterministic
routes) and derives per-aggregator contention factors: the worst sharing
factor seen by any link on the routes into that aggregator.  A topology-aware
placement that spreads aggregators produces factors close to 1; the default
rank-order placement that packs aggregators onto neighbouring nodes (or onto
the same dragonfly routers) produces larger factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.topology.base import Topology
from repro.utils.validation import require

#: Cap on memoised flow analyses per topology instance (cleared wholesale).
_MAX_FLOW_CACHE = 512


@dataclass
class FlowAnalysis:
    """Result of the flow-counting pass.

    Attributes:
        link_load: number of flows per directed link key ``(src, dst)``.
        aggregator_contention: worst link sharing factor on the incoming
            routes of each aggregator node.
        aggregator_distance: mean hop distance from an aggregator's senders.
        aggregator_min_bandwidth: narrowest link bandwidth on any incoming
            route of each aggregator (bytes/s).
    """

    link_load: Counter = field(default_factory=Counter)
    aggregator_contention: dict[int, float] = field(default_factory=dict)
    aggregator_distance: dict[int, float] = field(default_factory=dict)
    aggregator_min_bandwidth: dict[int, float] = field(default_factory=dict)

    def max_contention(self) -> float:
        """The worst contention factor over all aggregators (>= 1)."""
        if not self.aggregator_contention:
            return 1.0
        return max(self.aggregator_contention.values())

    def mean_contention(self) -> float:
        """The mean contention factor over aggregators (>= 1)."""
        if not self.aggregator_contention:
            return 1.0
        values = list(self.aggregator_contention.values())
        return sum(values) / len(values)


def analyze_flows(
    topology: Topology,
    senders_by_aggregator: dict[int, list[int]],
    *,
    max_senders_per_aggregator: int = 128,
) -> FlowAnalysis:
    """Count link loads for the aggregation traffic pattern.

    Args:
        topology: the interconnect.
        senders_by_aggregator: for each aggregator *node*, the list of sender
            *nodes* shipping data to it (the aggregator itself may appear;
            self-flows are ignored since they do not touch the network).
        max_senders_per_aggregator: cap on the number of sender routes
            enumerated per aggregator (a uniform sample is taken above the
            cap) to bound the analysis cost on very large partitions.

    Returns:
        A :class:`FlowAnalysis` with per-link loads and per-aggregator
        contention factors.  The contention factor of an aggregator is the
        maximum, over the links of its incoming routes, of the number of
        *distinct aggregators* whose traffic crosses that link — i.e. how
        many aggregation streams the link is shared between.
    """
    require(len(senders_by_aggregator) > 0, "no aggregation flows to analyse")
    # The analysis is a pure function of (topology, flow pattern) and every
    # consumer treats it as read-only, so it is memoised on the topology
    # instance: tuning candidates and sweep points that differ only in
    # buffer/stripe tunables share one flow pattern and pay for it once.
    cache_key = (
        tuple(
            (aggregator, tuple(senders))
            for aggregator, senders in senders_by_aggregator.items()
        ),
        max_senders_per_aggregator,
    )
    cache = topology.__dict__.get("_fp_flow_cache")
    if cache is None:
        cache = topology.__dict__["_fp_flow_cache"] = {}
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    analysis = FlowAnalysis()
    # First pass: per-link set of aggregators using the link.  Routes come
    # out of the topology's per-instance route cache: pairs the placement or
    # an earlier sweep point / tuning candidate / co-scheduled job already
    # materialised are served as dictionary hits instead of being re-routed.
    aggregators_on_link: dict[tuple, set[int]] = {}
    routes_by_aggregator: dict[int, list] = {}
    for aggregator, senders in senders_by_aggregator.items():
        senders = [s for s in senders if s != aggregator]
        if len(senders) > max_senders_per_aggregator:
            step = len(senders) / max_senders_per_aggregator
            senders = [senders[int(i * step)] for i in range(max_senders_per_aggregator)]
        routes = [topology.route(sender, aggregator) for sender in senders]
        for route in routes:
            for link in route.links:
                analysis.link_load[link.key] += 1
                aggregators_on_link.setdefault(link.key, set()).add(aggregator)
        routes_by_aggregator[aggregator] = routes
    # Second pass: per-aggregator contention, distance and bottleneck
    # bandwidth.  The sharing degree of a link is fixed after the first
    # pass, so it is flattened to an int per link once instead of taking
    # ``len()`` of the aggregator set again for every route that crosses it.
    sharing_of_link = {
        key: len(aggregators) for key, aggregators in aggregators_on_link.items()
    }
    for aggregator, routes in routes_by_aggregator.items():
        worst_sharing = 1.0
        min_bandwidth = float("inf")
        total_hops = 0
        for route in routes:
            for link in route.links:
                sharing = sharing_of_link.get(link.key, 1)
                worst_sharing = max(worst_sharing, float(sharing))
                min_bandwidth = min(min_bandwidth, link.bandwidth)
            total_hops += route.hops
        analysis.aggregator_contention[aggregator] = worst_sharing
        analysis.aggregator_distance[aggregator] = (
            total_hops / len(routes) if routes else 0.0
        )
        analysis.aggregator_min_bandwidth[aggregator] = (
            min_bandwidth
            if min_bandwidth != float("inf")
            else topology.link_bandwidth("default")
        )
    if len(cache) >= _MAX_FLOW_CACHE:
        cache.clear()
    cache[cache_key] = analysis
    return analysis
