"""Job model for single- and multi-job simulations.

A :class:`JobSpec` declares what one application wants — nodes, workload, I/O
method and tuning — independently of where it lands on the machine.  Every
scenario job resolves to one (through
:func:`~repro.scenario.simulation.resolve_job`), whether it runs alone or
co-runs, and :func:`job_plan` is the one TAPIOCA/MPI I/O dispatch from a
spec to its model plan, whose ``context.filesystem`` is the job's file as
:func:`~repro.perfmodel.common.resolve_filesystem` decides it.
:func:`bind_jobs` binds every spec to its allocation in one columnar pass
over the job list: the rank mappings of all allocations from one gather
(:func:`~repro.topology.mapping.allocation_mappings`), then
:func:`~repro.perfmodel.batch.estimate_plans` — one stacked partition
table built once per distinct partition shape, one election over all
jobs, every job's sender groups from one ``np.unique``, one routing of all
their flows, whose matrix both the flow analysis and the link weights read
(their samples are row selections of it), one fill-time pass and each
method's phase terms as arrays over its jobs.  A :class:`Job` is one row
of that pass: the runtime reads its isolated rate (the demand cap that
anchors the slowdown metric), storage weights and link terms, and its
isolated estimate, mapping and weight dictionaries are built only when
read.  ``tests/reference/binding.py`` keeps the per-job binding it equals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.config import TapiocaConfig
from repro.iolib.hints import MPIIOHints
from repro.machine.machine import Machine
from repro.machine.mira import MiraMachine
from repro.perfmodel.batch import Estimates, ModelPlan, estimate_plans
from repro.perfmodel.mpiio import MPIIOPlan
from repro.perfmodel.results import IOEstimate
from repro.perfmodel.tapioca import TapiocaPlan
from repro.storage.base import FileSystemModel
from repro.storage.burst_buffer import BurstBufferModel
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.mapping import RankMapping, allocation_mappings
from repro.utils.validation import require, require_non_negative, require_positive
from repro.workloads.base import Workload


@dataclass(frozen=True)
class JobSpec:
    """Declaration of one job of a multi-job scenario.

    Attributes:
        name: unique job name (also the contention-ledger flow id).
        num_nodes: nodes the job requests from the allocator.
        workload: the job's I/O workload; its rank count must equal
            ``num_nodes * ranks_per_node``.
        ranks_per_node: MPI ranks per allocated node.
        method: ``"tapioca"`` or ``"mpiio"`` — which I/O path the job uses.
        config: TAPIOCA configuration (``method="tapioca"``).
        hints: MPI I/O hints (``method="mpiio"``).
        stripe: per-job Lustre striping (including ``ost_start``, which is
            how scenarios place two jobs' files on shared or disjoint OSTs).
        filesystem: optional file-system override for this job's file (e.g.
            a shared :class:`~repro.storage.burst_buffer.BurstBufferModel`).
        arrival_s: time the job enters the machine.
        compute_s: compute (think) time before its I/O phase starts.
    """

    name: str
    num_nodes: int
    workload: Workload
    ranks_per_node: int = 16
    method: str = "tapioca"
    config: TapiocaConfig | None = None
    hints: MPIIOHints | None = None
    stripe: LustreStripeConfig | None = None
    filesystem: FileSystemModel | None = None
    arrival_s: float = 0.0
    compute_s: float = 0.0

    def __post_init__(self) -> None:
        require(bool(self.name), "job name must be non-empty")
        require_positive(self.num_nodes, "num_nodes")
        require_positive(self.ranks_per_node, "ranks_per_node")
        require(
            self.method in ("tapioca", "mpiio"),
            f"method must be 'tapioca' or 'mpiio', got {self.method!r}",
        )
        require_non_negative(self.arrival_s, "arrival_s")
        require_non_negative(self.compute_s, "compute_s")
        expected = self.num_nodes * self.ranks_per_node
        require(
            self.workload.num_ranks == expected,
            f"job {self.name!r}: workload declares {self.workload.num_ranks} "
            f"ranks but num_nodes * ranks_per_node = {expected}",
        )

    @property
    def num_ranks(self) -> int:
        """Total MPI ranks of the job."""
        return self.num_nodes * self.ranks_per_node


class Job:
    """A spec bound to a concrete allocation on the shared machine: one row
    of a :func:`bind_jobs` pass.

    The runtime reads only :attr:`isolated_rate`, :attr:`storage_weights`
    and :meth:`link_terms`; the other fields are built on first read from
    the pass's columns.

    Attributes:
        spec: the declaring :class:`JobSpec`.
        nodes: machine node ids allocated to the job.
        mapping: rank-to-node mapping over the allocation.
        isolated: single-job performance estimate on this exact allocation —
            the baseline the per-job slowdown is measured against.
        storage_weights: ledger weights on storage resources.
        network_weights: ledger weights on interconnect links.
        network_capacities: those links' bandwidths.
    """

    def __init__(
        self,
        spec: JobSpec,
        nodes: np.ndarray,
        mapping: RankMapping,
        estimates: Estimates,
        row: int,
        storage_weights: dict[tuple, float],
    ) -> None:
        self.spec, self.mapping, self.storage_weights = spec, mapping, storage_weights
        self._nodes, self._estimates, self._row = nodes, estimates, row

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self._nodes.tolist())

    @cached_property
    def isolated(self) -> IOEstimate:
        return self._estimates[self._row]

    @cached_property
    def network_weights(self) -> dict[tuple, float]:
        keys, weights, _ = self.link_terms()
        return dict(zip(keys, weights))

    @cached_property
    def network_capacities(self) -> dict[tuple, float]:
        keys, _, capacities = self.link_terms()
        return dict(zip(keys, capacities))

    def link_terms(self) -> tuple[list[tuple], list[float], list[float]]:
        """``("link", id)`` keys in first-traversal order, the order the
        ledger registers them in, with their weights and bandwidths.  A link
        that ``c`` of the job's ``f`` sampled flows cross carries ``c / f``
        of its bytes (each byte crosses the network once)."""
        loads = self._estimates.loads[self._row]
        if loads is None or not loads.flows:
            return [], [], []
        total = float(loads.flows)
        keys = [("link", link) for link in loads.ids]
        return keys, [count / total for count in loads.counts], loads.bandwidths

    @property
    def name(self) -> str:
        """The job name (ledger flow id)."""
        return self.spec.name

    @property
    def total_bytes(self) -> float:
        """Bytes the job's I/O phase moves."""
        return float(self.spec.workload.total_bytes())

    @property
    def isolated_rate(self) -> float:
        """The job's isolated end-to-end bandwidth (bytes/s); its demand cap."""
        return float(self._estimates.bandwidth[self._row])

    @property
    def ready_s(self) -> float:
        """Time the job's I/O phase becomes runnable."""
        return self.spec.arrival_s + self.spec.compute_s


def storage_demand_weights(
    machine: Machine, filesystem: FileSystemModel, nodes: Sequence[int]
) -> dict[tuple, float]:
    """Per-resource weights of a job's I/O on the machine's shared storage,
    given the file system its plan priced (``plan.context.filesystem``), so
    the ledger charges the OSTs the estimate priced.

    Weights are the fraction of the job's bytes each resource carries:

    * Lustre — the file's stripe spreads bytes uniformly over its OST set
      (weight ``1/stripe_count`` each) and every byte crosses the LNET pipe;
    * GPFS — bytes spread over the I/O nodes of the Psets the allocation
      occupies, and every byte reaches the backend;
    * burst buffer — every byte funnels through the shared drain.
    """
    if isinstance(filesystem, LustreModel):
        osts = filesystem.ost_indices()
        weights = {("lustre-ost", index): 1.0 / len(osts) for index in osts}
        weights[("lustre-lnet",)] = 1.0
        return weights
    if isinstance(filesystem, GPFSModel):
        if isinstance(machine, MiraMachine):
            psets = machine.psets_of_nodes(list(nodes))
        else:
            psets = sorted({machine.partition_of_node(node) for node in nodes})
        weights = {("gpfs-ion", pset): 1.0 / len(psets) for pset in psets}
        weights[("gpfs-backend",)] = 1.0
        return weights
    if isinstance(filesystem, BurstBufferModel):
        return {("bb-drain", filesystem.name): 1.0}
    return {("fs", filesystem.name): 1.0}


def bind_jobs(
    machine: Machine, specs: Sequence[JobSpec], allocations: Sequence[Sequence[int]]
) -> list[Job]:
    """Bind every spec to its allocation in one ``estimate_plans`` pass over
    all the jobs; each job equals binding its spec alone."""
    nodes = [np.asarray(allocation, dtype=np.int64) for allocation in allocations]
    mappings = allocation_mappings(
        [spec.num_ranks for spec in specs],
        nodes,
        num_nodes=machine.num_nodes,
        ranks_per_node=[spec.ranks_per_node for spec in specs],
    )
    plans = [job_plan(machine, spec, mapping) for spec, mapping in zip(specs, mappings)]
    estimates = estimate_plans(machine, plans, loads=True)
    return [
        Job(
            spec,
            ids,
            mapping,
            estimates,
            row,
            storage_demand_weights(machine, plan.context.filesystem, ids.tolist()),
        )
        for row, (spec, plan, ids, mapping) in enumerate(zip(specs, plans, nodes, mappings))
    ]


def job_plan(machine: Machine, spec: JobSpec, mapping: RankMapping | None = None) -> ModelPlan:
    """The spec's single-job model: the one TAPIOCA/MPI I/O dispatch.

    ``mapping`` is the job's allocation; ``None`` (a single-job scenario)
    keeps the default block mapping, and with it the aggregation memo.  The
    plan resolves the job's file once, from the spec's file-system
    override, its stripe and (MPI I/O) its hints, with
    :func:`~repro.perfmodel.common.resolve_filesystem`; the estimate and the
    ledger's storage weights both read that ``plan.context.filesystem``.
    """
    options = dict(
        ranks_per_node=spec.ranks_per_node,
        filesystem=spec.filesystem,
        stripe=spec.stripe,
        mapping=mapping,
    )
    if spec.method == "tapioca":
        return TapiocaPlan(machine, spec.workload, spec.config, **options)
    return MPIIOPlan(machine, spec.workload, spec.hints, **options)
