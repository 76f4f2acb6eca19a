"""Interconnect topology models.

The placement cost model of TAPIOCA only needs a handful of quantities from
the interconnect: hop distances between nodes, the distance to the I/O
gateway, link latencies and bandwidths.  The performance model additionally
needs the links each message's route crosses (as integer link ids) so it can
count flows per link and model contention.  This package provides those
quantities for the two platforms of the paper and a couple of extra
topologies used to exercise the generic interface:

* :class:`~repro.topology.torus.TorusTopology` — n-dimensional torus; the 5D
  configuration models the IBM BG/Q (Mira) partitions.
* :class:`~repro.topology.dragonfly.DragonflyTopology` — the Cray XC40
  (Theta) Aries dragonfly: groups of routers, all-to-all electrical links
  inside a group, optical links between groups, four nodes per router.
* :class:`~repro.topology.fattree.FatTreeTopology` — a k-ary fat tree, used
  to demonstrate that the topology abstraction is not tied to the paper's two
  machines.

All topologies expose the same :class:`~repro.topology.base.Topology`
interface.
"""

from repro.topology.base import Topology
from repro.topology.torus import TorusTopology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.mapping import (
    RankMapping,
    block_mapping,
    round_robin_mapping,
    random_mapping,
)

__all__ = [
    "Topology",
    "TorusTopology",
    "DragonflyTopology",
    "FatTreeTopology",
    "RankMapping",
    "block_mapping",
    "round_robin_mapping",
    "random_mapping",
]
