"""Scalar oracle for the aggregation-phase fill time.

:meth:`repro.perfmodel.aggregation.AggregationPhaseModel.round_fill_times`
computes the fill time of many aggregators as one array expression;
:func:`round_fill_time` here is the one-aggregator form it must equal bit
for bit.
"""

from __future__ import annotations

from repro.perfmodel.aggregation import AggregationPhaseModel
from repro.utils.validation import require_non_negative, require_positive


def round_fill_time(
    model: AggregationPhaseModel,
    aggregator_node: int,
    num_sender_nodes: int,
    round_bytes: float,
) -> float:
    """Time to fill one aggregation buffer of ``round_bytes`` bytes."""
    require_non_negative(round_bytes, "round_bytes")
    require_positive(num_sender_nodes, "num_sender_nodes")
    if round_bytes == 0:
        return 0.0
    local_fraction = 1.0 / num_sender_nodes
    local_fraction = min(max(local_fraction, 0.0), 1.0)
    topology = model.machine.topology
    contention = model.flows.aggregator_contention.get(aggregator_node, 1.0)
    incoming_bw = model.flows.aggregator_min_bandwidth.get(
        aggregator_node, topology.link_bandwidth("default")
    )
    effective_bw = incoming_bw / max(contention, 1.0)
    distance = model.flows.aggregator_distance.get(aggregator_node, 1.0)
    network_bytes = round_bytes * (1.0 - local_fraction)
    local_bytes = round_bytes * local_fraction
    memory_bw = model.machine.node_spec.main_memory.bandwidth
    per_message_overhead = 1.0e-6
    messages = max(1, num_sender_nodes - 1) * max(1, model.ranks_per_node)
    software = per_message_overhead * messages / max(1, num_sender_nodes)
    network_time = (
        topology.latency() * distance + network_bytes / effective_bw + software
    )
    local_time = local_bytes / memory_bw
    return max(network_time, local_time)
