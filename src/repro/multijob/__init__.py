"""Multi-job interference simulation.

Runs several concurrent simulated jobs against one machine: a node allocator
with pluggable policies hands out the nodes, a contention ledger partitions
shared-resource bandwidth (Lustre OSTs, LNET, GPFS I/O nodes and backend,
burst-buffer drains, dragonfly/torus links) among the active jobs, and a
fluid runtime advances the jobs in time slices, reporting each job's
slowdown versus its isolated run.
"""

from repro.multijob.allocator import ALLOCATION_POLICIES, Allocation, NodeAllocator
from repro.multijob.contention import ContentionLedger
from repro.multijob.job import Job, JobSpec, bind_jobs
from repro.multijob.runtime import InterferenceReport, JobOutcome, MultiJobRuntime

__all__ = [
    "ALLOCATION_POLICIES",
    "Allocation",
    "ContentionLedger",
    "InterferenceReport",
    "Job",
    "JobOutcome",
    "JobSpec",
    "MultiJobRuntime",
    "NodeAllocator",
    "bind_jobs",
]
