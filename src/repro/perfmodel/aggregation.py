"""Aggregation-phase timing model.

The time for one aggregation round of one aggregator is the time for its
partition's senders to deposit ``round_bytes`` into the aggregation buffer.
The senders operate in parallel, so the round is limited by

* the pipe into the aggregator's node (its narrowest incoming link), shared
  with however many other aggregation streams cross the same links
  (contention factor from :mod:`repro.perfmodel.flows`), and
* the per-message latency of the farthest sender.

Data produced by ranks co-located with the aggregator moves through memory
instead of the network and is therefore charged at the node's memory
bandwidth.  :func:`fill_times` computes the fill of every aggregator of a
whole batch of jobs in one array expression.
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.machine import Machine
from repro.utils.validation import require


def fill_times(
    machine: Machine,
    contention,
    incoming_bw,
    distance,
    num_sender_nodes,
    round_bytes,
    ranks_per_node,
) -> np.ndarray:
    """Buffer fill time of every aggregator of one or many jobs.

    Each argument after ``machine`` has one value per aggregator (or one
    shared value): the contention factor, narrowest incoming bandwidth and
    mean sender distance from its job's flow analysis, its sender node
    count, its bytes per round and its job's ranks per node.  Element by
    element this is the IEEE arithmetic, in order, of the scalar oracle in
    ``tests/reference/``, so a batch gets each job's own fill times.
    """
    senders = np.asarray(num_sender_nodes, dtype=np.int64)
    round_bytes = np.broadcast_to(np.asarray(round_bytes, dtype=np.float64), senders.shape)
    require((round_bytes >= 0).all(), "round_bytes must be non-negative")
    require((senders > 0).all(), "num_sender_nodes must be positive")
    topology = machine.topology
    contention = np.asarray(contention, dtype=np.float64)
    distance = np.asarray(distance, dtype=np.float64)
    local_fraction = np.minimum(np.maximum(1.0 / senders, 0.0), 1.0)
    effective_bw = np.asarray(incoming_bw, dtype=np.float64) / np.maximum(contention, 1.0)
    network_bytes = round_bytes * (1.0 - local_fraction)
    local_bytes = round_bytes * local_fraction
    memory_bw = machine.node_spec.main_memory.bandwidth
    # The network transfer and the local memory copy overlap; the RMA
    # latency term is paid once per sender message in the round (senders
    # are concurrent, so only the per-hop latency of the farthest one is
    # exposed, plus a small per-message software cost serialised at the
    # aggregator's NIC).
    per_message_overhead = 1.0e-6
    messages = np.maximum(1, senders - 1) * np.maximum(
        1, np.asarray(ranks_per_node, dtype=np.int64)
    )
    software = per_message_overhead * messages / np.maximum(1, senders)
    network_time = topology.latency() * distance + network_bytes / effective_bw + software
    local_time = local_bytes / memory_bw
    return np.where(round_bytes == 0, 0.0, np.maximum(network_time, local_time))


def collective_time(machine: Machine, ranks: int) -> float:
    """Cost of one small tree collective over ``ranks``: the aggregator
    election's ``Allreduce(MINLOC)`` over a partition, or the offset
    exchange over all ranks."""
    if ranks <= 1:
        return 0.0
    steps = max(1, math.ceil(math.log2(ranks)))
    return steps * (2.0e-6 + machine.topology.latency() * 2.0)


def collective_times(machine: Machine, ranks) -> np.ndarray:
    """:func:`collective_time` of every entry of ``ranks``, one call per
    distinct count."""
    times: dict[int, float] = {}
    return np.array(
        [times[n] if n in times else times.setdefault(n, collective_time(machine, n)) for n in ranks]
    )
