"""Shared setup for the analytic models.

:func:`resolve_filesystem` is the one owner of the file a job writes: which
:class:`~repro.storage.base.FileSystemModel` it lives on and how it is
striped.  Every plan's :class:`ModelContext` carries its result, and the
multi-job ledger, the ``Tapioca`` facade and the scenario layer read that
one object instead of re-deciding the stripe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.machine.machine import Machine
from repro.obs import recorder as obs_recorder
from repro.storage.base import FileSystemModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.mapping import RankMapping, block_mapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iolib.hints import MPIIOHints


@dataclass
class ModelContext:
    """Everything both analytic models need about the run being estimated.

    Attributes:
        machine: platform model.
        workload: the I/O workload.
        mapping: rank-to-node mapping.
        ranks_per_node: MPI ranks per node.
        filesystem: file-system model the output file lives on, as
            :func:`resolve_filesystem` decided it.
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


def resolve_filesystem(
    machine: Machine,
    filesystem: FileSystemModel | None = None,
    stripe: LustreStripeConfig | None = None,
    hints: MPIIOHints | None = None,
) -> FileSystemModel:
    """The file-system model a job's output file lives on.

    The file lives on ``filesystem`` if given, else on the machine's file
    system.  An explicit ``stripe`` applies to it; a file system that is not
    Lustre refuses one with a ``ValueError``.  MPI I/O striping hints are
    advisory, as in ROMIO: on Lustre they replace the stripe count
    (``striping_factor``, else 1) and size (``striping_unit``, else 1 MiB)
    and keep the file's ``ost_start``; elsewhere they are ignored.  The
    result is restriped at most once.
    """
    fs = filesystem if filesystem is not None else machine.filesystem()
    striping = hints is not None and (
        hints.striping_factor is not None or hints.striping_unit is not None
    )
    if stripe is None and not striping:
        return fs
    if not isinstance(fs, LustreModel):
        if stripe is not None:
            raise ValueError(
                f"a Lustre stripe was given, but the job's file has a {fs.name} file system"
            )
        return fs
    if striping:
        stripe = LustreStripeConfig(
            stripe_count=hints.striping_factor or 1,
            stripe_size=hints.striping_unit or LustreStripeConfig.stripe_size,
            ost_start=(stripe or fs.stripe).ost_start,
        )
    return fs.with_stripe(stripe)


def build_context(
    machine: Machine,
    workload: Workload,
    *,
    ranks_per_node: int | None = None,
    mapping: RankMapping | None = None,
    filesystem: FileSystemModel | None = None,
    stripe: LustreStripeConfig | None = None,
    hints: MPIIOHints | None = None,
    shared_locks: bool = True,
) -> ModelContext:
    """Assemble a :class:`ModelContext` on the file :func:`resolve_filesystem`
    resolves from ``filesystem``, ``stripe`` and ``hints``.

    Args:
        machine: platform model.
        workload: the I/O workload (defines the rank count).
        ranks_per_node: defaults to the machine's usual value.
        mapping: defaults to a block mapping over the nodes actually needed.
        filesystem: file-system override (defaults to the machine's).
        stripe: explicit Lustre striping of the output file.
        hints: MPI I/O hints, whose striping is advisory.
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
    return ModelContext(
        machine=machine,
        workload=workload,
        mapping=mapping,
        ranks_per_node=rpn,
        filesystem=resolve_filesystem(machine, filesystem, stripe, hints),
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
