"""Per-job oracle for the contention ledger's network demand weights.

:func:`repro.multijob.job.bind_jobs` takes every job's link weights from
one routing of all jobs' flows (:func:`repro.perfmodel.flows.analyze_jobs`,
the ledger sample a row selection of the shared flow table).
:func:`network_demand_weights` here is the per-job function it replaced:
it lists the job's flows in Python, samples them above the cap and counts
them per link with :func:`link_loads`.  The two must give equal
dictionaries, key order included.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.machine.machine import Machine
from repro.perfmodel.flows import MAX_SAMPLED_FLOWS
from repro.topology.base import Topology


def link_loads(
    topology: Topology, flows: Iterable[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link flow accounting over the deterministic routes of ``flows``.

    Args:
        topology: the interconnect.
        flows: ``(src, dst)`` node pairs; self-flows cross no link.

    Returns:
        ``(ids, counts)`` int64 arrays: each link id that any flow
        crosses and how many of the flows cross it, in first-traversal
        order (flows in the given order, each along its route).
    """
    pairs = np.array(list(flows), dtype=np.int64).reshape(-1, 2)
    links = topology.route_links(pairs[:, 0], pairs[:, 1]).ravel()
    links = links[links >= 0]
    ids, first, counts = np.unique(links, return_index=True, return_counts=True)
    order = np.argsort(first)
    return ids[order], counts[order]


def network_demand_weights(
    machine: Machine,
    senders_by_aggregator: Mapping[int, Sequence[int]],
    *,
    max_flows: int = MAX_SAMPLED_FLOWS,
) -> tuple[dict[tuple, float], dict[tuple, float]]:
    """Per-link weights (and capacities) of the job's aggregation traffic.

    Every workload byte crosses the network once, from its producer node to
    its partition's aggregator node; a link traversed by ``c`` of the job's
    ``f`` flows therefore carries roughly ``c / f`` of the job's bytes.  The
    flow pattern is the one the performance model actually used
    (``details["senders_by_aggregator"]``), so partitioned TAPIOCA traffic
    and ROMIO file-domain traffic each load their real links.  Flows are
    sampled uniformly above ``max_flows`` to bound the routing enumeration
    on large jobs (weights stay normalised over the sample).

    Returns:
        ``(weights, capacities)`` — both keyed by ``("link", id)`` with the
        topology's link ids, in first-traversal order (the order the ledger
        registers them in); capacities are the links' bandwidths for ledger
        registration.
    """
    flows = [
        (sender, aggregator)
        for aggregator, senders in senders_by_aggregator.items()
        for sender in senders
        if sender != aggregator
    ]
    if len(flows) > max_flows:
        step = len(flows) / max_flows
        flows = [flows[int(i * step)] for i in range(max_flows)]
    if not flows:
        return {}, {}
    topology = machine.topology
    ids, counts = link_loads(topology, flows)
    keys = [("link", link) for link in ids.tolist()]
    total = float(len(flows))
    weights = {key: count / total for key, count in zip(keys, counts.tolist())}
    capacities = dict(zip(keys, topology._link_bandwidths(ids).tolist()))
    return weights, capacities
