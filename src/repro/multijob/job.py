"""Job model for multi-job (interference) simulations.

A :class:`JobSpec` declares what one application wants — nodes, workload, I/O
method and tuning — independently of where it lands on the machine.  The
:class:`MultiJobRuntime` binds specs to concrete allocations, producing
:class:`Job` objects that carry the placement, the single-job (isolated)
performance estimate that anchors the slowdown metric, and the weighted
demands the contention ledger needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.config import TapiocaConfig
from repro.iolib.hints import MPIIOHints
from repro.machine.machine import Machine
from repro.machine.mira import MiraMachine
from repro.perfmodel.mpiio import model_mpiio
from repro.perfmodel.results import IOEstimate
from repro.perfmodel.tapioca import model_tapioca
from repro.storage.base import FileSystemModel
from repro.storage.burst_buffer import BurstBufferModel
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.mapping import RankMapping, allocation_mapping
from repro.utils.validation import require, require_non_negative, require_positive
from repro.workloads.base import Workload

#: Cap on the number of sender→aggregator flows enumerated per job when
#: computing per-link demand weights (a uniform sample is taken above it).
MAX_SAMPLED_FLOWS = 512


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


@dataclass
class Job:
    """A spec bound to a concrete allocation on the shared machine.

    Attributes:
        spec: the declaring :class:`JobSpec`.
        nodes: machine node ids allocated to the job.
        mapping: rank-to-node mapping over the allocation.
        isolated: single-job performance estimate on this exact allocation —
            the baseline the per-job slowdown is measured against.
        storage_weights: ledger weights on storage resources.
        network_weights: ledger weights on interconnect links.
    """

    spec: JobSpec
    nodes: tuple[int, ...]
    mapping: RankMapping
    isolated: IOEstimate
    storage_weights: dict[tuple, float] = field(default_factory=dict)
    network_weights: dict[tuple, float] = field(default_factory=dict)
    network_capacities: dict[tuple, float] = field(default_factory=dict)

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
        return self.isolated.bandwidth

    @property
    def ready_s(self) -> float:
        """Time the job's I/O phase becomes runnable."""
        return self.spec.arrival_s + self.spec.compute_s

    def weights(self) -> dict[tuple, float]:
        """Combined ledger weights (storage + network)."""
        combined = dict(self.storage_weights)
        combined.update(self.network_weights)
        return combined


def estimate_isolated(
    machine: Machine, spec: JobSpec, mapping: RankMapping
) -> IOEstimate:
    """Single-job estimate of ``spec`` on its allocation of ``machine``."""
    if spec.method == "tapioca":
        return model_tapioca(
            machine,
            spec.workload,
            spec.config,
            ranks_per_node=spec.ranks_per_node,
            filesystem=spec.filesystem,
            stripe=spec.stripe,
            mapping=mapping,
        )
    # The MPI I/O model takes striping through hints; apply a per-job stripe
    # (shared/disjoint OST placement) via a pre-striped file-system instead.
    filesystem = spec.filesystem
    if filesystem is None and spec.stripe is not None:
        filesystem = job_filesystem(machine, spec)
    return model_mpiio(
        machine,
        spec.workload,
        spec.hints or MPIIOHints(),
        ranks_per_node=spec.ranks_per_node,
        filesystem=filesystem,
        mapping=mapping,
    )


def job_filesystem(machine: Machine, spec: JobSpec) -> FileSystemModel:
    """The file-system model the job's output file actually lives on."""
    if spec.filesystem is not None:
        return spec.filesystem
    filesystem = machine.filesystem()
    if spec.stripe is not None and isinstance(filesystem, LustreModel):
        return filesystem.with_stripe(spec.stripe)
    return filesystem


def storage_demand_weights(
    machine: Machine, spec: JobSpec, nodes: Sequence[int]
) -> dict[tuple, float]:
    """Per-resource weights of the job's I/O on the machine's shared storage.

    Weights are the fraction of the job's bytes each resource carries:

    * Lustre — the file's stripe spreads bytes uniformly over its OST set
      (weight ``1/stripe_count`` each) and every byte crosses the LNET pipe;
    * GPFS — bytes spread over the I/O nodes of the Psets the allocation
      occupies, and every byte reaches the backend;
    * burst buffer — every byte funnels through the shared drain.
    """
    filesystem = job_filesystem(machine, spec)
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


def network_demand_weights(
    machine: Machine,
    senders_by_aggregator: Mapping[int, Sequence[int]],
    *,
    max_flows: int = MAX_SAMPLED_FLOWS,
) -> tuple[dict[tuple, float], dict[tuple, float]]:
    """Per-link weights (and capacities) of the job's aggregation traffic.

    Every workload byte crosses the network once, from its producer node to
    its partition's aggregator node; a link traversed by ``c`` of the job's
    ``f`` flows therefore carries roughly ``c / f`` of the job's bytes.  The
    flow pattern is the one the performance model actually used
    (``details["senders_by_aggregator"]``), so partitioned TAPIOCA traffic
    and ROMIO file-domain traffic each load their real links.  Flows are
    sampled uniformly above ``max_flows`` to bound the routing enumeration
    on large jobs (weights stay normalised over the sample).

    Returns:
        ``(weights, capacities)`` — both keyed by ``("link", id)`` with the
        topology's link ids, in first-traversal order (the order the ledger
        registers them in); capacities are the links' bandwidths for ledger
        registration.
    """
    flows = [
        (sender, aggregator)
        for aggregator, senders in senders_by_aggregator.items()
        for sender in senders
        if sender != aggregator
    ]
    if len(flows) > max_flows:
        step = len(flows) / max_flows
        flows = [flows[int(i * step)] for i in range(max_flows)]
    if not flows:
        return {}, {}
    topology = machine.topology
    ids, counts = topology.link_loads(flows)
    keys = [("link", link) for link in ids.tolist()]
    total = float(len(flows))
    weights = {key: count / total for key, count in zip(keys, counts.tolist())}
    capacities = dict(zip(keys, topology._link_bandwidths(ids).tolist()))
    return weights, capacities


def bind_job(machine: Machine, spec: JobSpec, nodes: Sequence[int]) -> Job:
    """Bind a spec to its allocation: mapping, isolated estimate, demands."""
    mapping = allocation_mapping(
        spec.num_ranks,
        nodes,
        num_nodes=machine.num_nodes,
        ranks_per_node=spec.ranks_per_node,
    )
    isolated = estimate_isolated(machine, spec, mapping)
    job = Job(
        spec=spec,
        nodes=tuple(int(n) for n in nodes),
        mapping=mapping,
        isolated=isolated,
        storage_weights=storage_demand_weights(machine, spec, nodes),
    )
    senders_by_aggregator = isolated.details.get("senders_by_aggregator", {})
    if senders_by_aggregator:
        job.network_weights, job.network_capacities = network_demand_weights(
            machine, senders_by_aggregator
        )
    return job
