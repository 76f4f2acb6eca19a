"""TAPIOCA: topology-aware two-phase I/O aggregation (the paper's contribution).

The package is organised around the three key directions the paper lists in
Section IV:

1. **Efficient two-phase I/O** — :mod:`repro.core.aggregation` schedules
   aggregation rounds across *all* declared writes so buffers fill completely
   before each flush, and :mod:`repro.core.runtime` executes the schedule with
   RMA puts, fences and non-blocking flushes through a double-buffer pipeline
   (Algorithms 2 and 3 of the paper).
2. **Topology-aware aggregator placement** — :mod:`repro.core.cost_model`
   implements the C1/C2 objective function and :mod:`repro.core.placement`
   elects the minimum-cost aggregator per partition (via
   ``MPI_Allreduce(MINLOC)`` in the discrete-event path).
3. **Topology abstraction** — :mod:`repro.core.topology_iface` is the Python
   analogue of the paper's Listing 1 interface, answering every query from a
   :class:`repro.machine.machine.Machine`.

The user-facing entry point is :class:`repro.core.api.Tapioca`.
"""

from repro.core.config import TapiocaConfig
from repro.core.topology_iface import TopologyInterface
from repro.core.cost_model import AggregationCostModel, CostBreakdown
from repro.core.partitioning import Partitions, build_partitions
from repro.core.placement import PlacementResult, place_aggregators
from repro.core.aggregation import AggregationSchedule, build_schedule
from repro.core.runtime import TapiocaIO
from repro.core.memory import AggregationBufferPlacement, choose_aggregation_tier
from repro.core.api import Tapioca

__all__ = [
    "TapiocaConfig",
    "TopologyInterface",
    "AggregationCostModel",
    "CostBreakdown",
    "Partitions",
    "build_partitions",
    "PlacementResult",
    "place_aggregators",
    "AggregationSchedule",
    "build_schedule",
    "TapiocaIO",
    "AggregationBufferPlacement",
    "choose_aggregation_tier",
    "Tapioca",
]
