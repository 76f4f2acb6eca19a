"""Route-walking oracle for the aggregation flow analysis.

:func:`repro.perfmodel.flows.analyze_flows` computes the per-aggregator
contention, distance and bottleneck bandwidth as array reductions over the
topology's route-link ids; :func:`analyze_flows` here walks one
:class:`~repro.topology.base.Route` per sender and must give the same three
dictionaries, key order included.  It is not memoised.
"""

from __future__ import annotations

from repro.perfmodel.flows import FlowAnalysis
from repro.topology.base import Topology
from repro.utils.validation import require


def sampled_senders(
    senders: list[int], aggregator: int, max_senders_per_aggregator: int
) -> list[int]:
    """The senders whose routes are walked: self-flows dropped, then a
    uniform sample of ``max_senders_per_aggregator`` above the cap."""
    senders = [s for s in senders if s != aggregator]
    if len(senders) > max_senders_per_aggregator:
        step = len(senders) / max_senders_per_aggregator
        senders = [senders[int(i * step)] for i in range(max_senders_per_aggregator)]
    return senders


def analyze_flows(
    topology: Topology,
    senders_by_aggregator: dict[int, list[int]],
    *,
    max_senders_per_aggregator: int = 128,
) -> FlowAnalysis:
    """Per-aggregator contention, distance and bandwidth by walking routes."""
    require(len(senders_by_aggregator) > 0, "no aggregation flows to analyse")
    analysis = FlowAnalysis()
    # First pass: per-link set of aggregators using the link.
    aggregators_on_link: dict[tuple, set[int]] = {}
    routes_by_aggregator: dict[int, list] = {}
    for aggregator, senders in senders_by_aggregator.items():
        senders = sampled_senders(senders, aggregator, max_senders_per_aggregator)
        routes = [topology._route_impl(sender, aggregator) for sender in senders]
        for route in routes:
            for link in route.links:
                aggregators_on_link.setdefault(link.key, set()).add(aggregator)
        routes_by_aggregator[aggregator] = routes
    # Second pass: per-aggregator contention, distance and bottleneck
    # bandwidth.
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
    return analysis
