"""Shared setup for the analytic models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.storage.base import FileSystemModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.mapping import RankMapping, block_mapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Workload


@dataclass
class ModelContext:
    """Everything both analytic models need about the run being estimated.

    Attributes:
        machine: platform model.
        workload: the I/O workload.
        mapping: rank-to-node mapping.
        ranks_per_node: MPI ranks per node.
        filesystem: file-system model the output file lives on (already
            carrying any striping overrides).
        shared_locks: whether the collective lock-sharing optimisation is on.
    """

    machine: Machine
    workload: Workload
    mapping: RankMapping
    ranks_per_node: int
    filesystem: FileSystemModel
    shared_locks: bool = True

    @property
    def num_ranks(self) -> int:
        """Number of MPI ranks."""
        return self.workload.num_ranks

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes used."""
        return max(1, -(-self.num_ranks // self.ranks_per_node))


def build_context(
    machine: Machine,
    workload: Workload,
    *,
    ranks_per_node: int | None = None,
    mapping: RankMapping | None = None,
    filesystem: FileSystemModel | None = None,
    stripe: LustreStripeConfig | None = None,
    shared_locks: bool = True,
) -> ModelContext:
    """Assemble a :class:`ModelContext`, applying Lustre striping overrides.

    Args:
        machine: platform model.
        workload: the I/O workload (defines the rank count).
        ranks_per_node: defaults to the machine's usual value.
        mapping: defaults to a block mapping over the nodes actually needed.
        filesystem: defaults to the machine's file system.
        stripe: optional Lustre striping override for the output file.
        shared_locks: lock-sharing tuning flag.
    """
    rpn = machine.default_ranks_per_node if ranks_per_node is None else int(ranks_per_node)
    require_positive(rpn, "ranks_per_node")
    num_ranks = workload.num_ranks
    num_nodes = max(1, -(-num_ranks // rpn))
    require(
        num_nodes <= machine.num_nodes,
        f"workload needs {num_nodes} nodes but the machine has {machine.num_nodes}",
    )
    if mapping is None:
        mapping = block_mapping(num_ranks, num_nodes, rpn)
    fs = filesystem if filesystem is not None else machine.filesystem()
    if stripe is not None:
        if not isinstance(fs, LustreModel):
            raise ValueError("a stripe override requires a Lustre file system")
        fs = fs.with_stripe(stripe)
    return ModelContext(
        machine=machine,
        workload=workload,
        mapping=mapping,
        ranks_per_node=rpn,
        filesystem=fs,
        shared_locks=shared_locks,
    )


def is_aligned(value: int, unit: int) -> bool:
    """Whether ``value`` is a multiple of the file system's alignment unit."""
    if unit <= 1:
        return True
    return value % unit == 0


def record_phases(estimates: Iterable[tuple[float, float, float, float]]) -> None:
    """Accumulate estimates' ``(aggregation, io, overhead, overlapped)``
    phase terms, in order, on the active recorder, so ``repro profile``
    prints one combined C1/C2/overhead breakdown next to the host-side span
    times of the same phases, whichever model ran."""
    rec = obs_recorder()
    if rec is not None:
        for terms in estimates:
            for phase, seconds in zip(("aggregation", "io", "overhead", "overlapped"), terms):
                rec.inc("model.phase_seconds", seconds, phase=phase)
            rec.inc("model.estimates")
