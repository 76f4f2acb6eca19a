"""Flow-level analytic performance model.

The discrete-event path (:mod:`repro.simmpi` + :mod:`repro.core.runtime`)
executes the real algorithms but is only practical up to a few hundred
ranks.  The paper's evaluation runs at 8K–64K ranks, so the figures are
regenerated with this analytic model instead.  It shares all its inputs with
the discrete-event path — the same machines, topologies, file-system models,
workloads, partitions and placement — and computes phase times from:

* an **aggregation phase model**: per-round buffer fill time from the
  latency/bandwidth of the sender→aggregator routes, with link contention
  obtained by counting competing flows per link
  (:mod:`repro.perfmodel.flows`);
* an **I/O phase model**: the file-system models' aggregate-bandwidth curves
  and alignment/lock penalties (:mod:`repro.storage`);
* a **pipeline model**: ROMIO's sequential rounds versus TAPIOCA's
  double-buffered overlap of aggregation and I/O.

Entry points: :func:`repro.perfmodel.mpiio.model_mpiio` and
:func:`repro.perfmodel.tapioca.model_tapioca`, both returning an
:class:`repro.perfmodel.results.IOEstimate`.
"""

from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.perfmodel.flows import FlowAnalysis, analyze_flows
from repro.perfmodel.aggregation import fill_times
from repro.perfmodel.mpiio import model_mpiio
from repro.perfmodel.tapioca import model_tapioca

__all__ = [
    "IOEstimate",
    "PhaseBreakdown",
    "FlowAnalysis",
    "analyze_flows",
    "fill_times",
    "model_mpiio",
    "model_tapioca",
]
