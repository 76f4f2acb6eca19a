"""I/O workload generators.

A workload describes *what the application writes (or reads)*: for every MPI
rank, a sequence of file segments grouped into collective calls.  The same
description feeds three consumers:

* the discrete-event MPI path, which materialises deterministic payload bytes
  so the file contents can be verified after the run;
* the analytic performance model, which only needs sizes, counts and
  alignment;
* the experiment harness, which sweeps workload parameters to regenerate the
  paper's figures.

Provided workloads:

* :class:`~repro.workloads.ior.IORWorkload` — the IOR microbenchmark used in
  Figs. 7–10: every rank writes/reads one contiguous block per iteration.
* :class:`~repro.workloads.hacc.HACCIOWorkload` — the HACC-IO kernel used in
  Figs. 11–14: nine variables per particle (38 bytes/particle) in either
  array-of-structures or structure-of-arrays layout.
* :class:`~repro.workloads.synthetic.SyntheticWorkload` — randomised
  non-uniform segments for property-based testing.
"""

from repro.workloads.base import Segment, Workload
from repro.workloads.ior import IORWorkload
from repro.workloads.hacc import HACC_PARTICLE_SIZE, HACC_VARIABLES, HACCIOWorkload
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "Segment",
    "Workload",
    "IORWorkload",
    "HACCIOWorkload",
    "HACC_VARIABLES",
    "HACC_PARTICLE_SIZE",
    "SyntheticWorkload",
]
