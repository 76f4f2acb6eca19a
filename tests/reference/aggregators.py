"""Block-by-block oracle for the bridge-first aggregator policy.

:func:`repro.iolib.aggregators.bridge_first_aggregators` takes every rank
block's first bridge rank in one ``searchsorted`` over the bridge ranks;
:func:`bridge_first_aggregators` here scans each block of
:func:`repro.iolib.aggregators.partition_ranks` on its own and must give the
same ranks.
"""

from __future__ import annotations

import numpy as np

from repro.iolib.aggregators import partition_ranks
from repro.machine.machine import Machine
from repro.machine.mira import MiraMachine
from repro.topology.mapping import RankMapping


def bridge_first_aggregators(
    machine: Machine, mapping: RankMapping, num_aggregators: int
) -> list[int]:
    """Each block's first rank on a bridge node, else its first rank."""
    if isinstance(machine, MiraMachine):
        bridge_nodes = machine.bridge_nodes()
    else:
        bridge_nodes = [gateway.node for gateway in machine.io_gateways()]
    on_bridge = np.isin(mapping.node_of_rank, bridge_nodes)
    aggregators = []
    for block in partition_ranks(mapping.num_ranks, num_aggregators):
        hits = np.flatnonzero(on_bridge[block.start : block.stop])
        aggregators.append(block.start + (int(hits[0]) if hits.size else 0))
    return aggregators
