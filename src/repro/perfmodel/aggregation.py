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
bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machine.machine import Machine
from repro.perfmodel.flows import FlowAnalysis
from repro.utils.validation import require


@dataclass
class AggregationPhaseModel:
    """Computes per-round aggregation (buffer fill) times.

    Args:
        machine: the platform (topology + node spec).
        flows: flow analysis of the full aggregation pattern.
        ranks_per_node: ranks per node (used to estimate the local fraction).
    """

    machine: Machine
    flows: FlowAnalysis
    ranks_per_node: int = 16

    def round_fill_times(
        self,
        aggregator_nodes: Sequence[int],
        num_sender_nodes: Sequence[int],
        round_bytes,
    ) -> np.ndarray:
        """Time to fill one aggregation buffer, for many aggregators at once.

        Args:
            aggregator_nodes: node hosting each aggregator.
            num_sender_nodes: number of distinct sender nodes feeding each
                aggregator (its partition's nodes).
            round_bytes: bytes deposited per round, one value per aggregator
                or one shared value.

        The fraction of a round produced on the aggregator's own node is
        ``1 / num_sender_nodes`` (uniform workloads).  Element by element
        this is the same IEEE arithmetic, in the same order, as the scalar
        form kept in ``tests/reference/`` as its oracle.
        """
        senders = np.asarray(num_sender_nodes, dtype=np.int64)
        round_bytes = np.broadcast_to(
            np.asarray(round_bytes, dtype=np.float64), senders.shape
        )
        require((round_bytes >= 0).all(), "round_bytes must be non-negative")
        require((senders > 0).all(), "num_sender_nodes must be positive")
        topology = self.machine.topology
        default_bw = topology.link_bandwidth("default")
        flows = self.flows
        contention = np.array(
            [flows.aggregator_contention.get(n, 1.0) for n in aggregator_nodes]
        )
        incoming_bw = np.array(
            [flows.aggregator_min_bandwidth.get(n, default_bw) for n in aggregator_nodes]
        )
        distance = np.array(
            [flows.aggregator_distance.get(n, 1.0) for n in aggregator_nodes],
            dtype=np.float64,
        )
        local_fraction = np.minimum(np.maximum(1.0 / senders, 0.0), 1.0)
        effective_bw = incoming_bw / np.maximum(contention, 1.0)
        network_bytes = round_bytes * (1.0 - local_fraction)
        local_bytes = round_bytes * local_fraction
        memory_bw = self.machine.node_spec.main_memory.bandwidth
        # The network transfer and the local memory copy overlap; the RMA
        # latency term is paid once per sender message in the round (senders
        # are concurrent, so only the per-hop latency of the farthest one is
        # exposed, plus a small per-message software cost serialised at the
        # aggregator's NIC).
        per_message_overhead = 1.0e-6
        messages = np.maximum(1, senders - 1) * max(1, self.ranks_per_node)
        software = per_message_overhead * messages / np.maximum(1, senders)
        network_time = (
            topology.latency() * distance + network_bytes / effective_bw + software
        )
        local_time = local_bytes / memory_bw
        return np.where(round_bytes == 0, 0.0, np.maximum(network_time, local_time))

    def election_time(self, partition_ranks: int) -> float:
        """Time of the ``Allreduce(MINLOC)`` aggregator election (one-off)."""
        if partition_ranks <= 1:
            return 0.0
        steps = max(1, math.ceil(math.log2(partition_ranks)))
        topology = self.machine.topology
        return steps * (2.0e-6 + topology.latency() * 2.0)

    def collective_overhead(self, num_ranks: int) -> float:
        """Cost of one small collective over ``num_ranks`` (offset exchange)."""
        if num_ranks <= 1:
            return 0.0
        steps = max(1, math.ceil(math.log2(num_ranks)))
        topology = self.machine.topology
        return steps * (2.0e-6 + topology.latency() * 2.0)
