"""MPI-IO hints.

The knobs users turn when tuning collective I/O (paper, Section V-B):

* ``cb_nodes`` — number of collective-buffering aggregators;
* ``cb_buffer_size`` — size of each aggregator's staging buffer;
* ``collective_buffering`` — whether two-phase I/O is enabled at all;
* striping (Lustre): ``striping_factor`` (stripe count / OSTs) and
  ``striping_unit`` (stripe size), advisory as in ROMIO (see
  :func:`repro.perfmodel.common.resolve_filesystem`);
* ``shared_locks`` — the lock-sharing mode both platforms expose for
  collective operations;
* ``aggregators_per_ost`` — the Cray MPI convention of scaling ``cb_nodes``
  with the number of OSTs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import MIB
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class MPIIOHints:
    """A bundle of MPI-IO tuning hints.

    Attributes:
        cb_nodes: number of aggregators for collective buffering (``None``
            lets the library pick its platform default).
        cb_buffer_size: per-aggregator staging buffer size in bytes.
        collective_buffering: whether two-phase collective I/O is enabled.
        striping_factor: Lustre stripe count for newly created files
            (``None`` = file system default).
        striping_unit: Lustre stripe size in bytes (``None`` = default).
        shared_locks: whether the collective lock-sharing optimisation is on.
        aggregators_per_ost: if set, ``cb_nodes`` is derived as
            ``aggregators_per_ost * striping_factor`` (Cray MPI behaviour).
    """

    cb_nodes: int | None = None
    cb_buffer_size: int = 16 * MIB
    collective_buffering: bool = True
    striping_factor: int | None = None
    striping_unit: int | None = None
    shared_locks: bool = True
    aggregators_per_ost: int | None = None

    def __post_init__(self) -> None:
        require_positive(self.cb_buffer_size, "cb_buffer_size")
        if self.cb_nodes is not None:
            require_positive(self.cb_nodes, "cb_nodes")
        if self.striping_factor is not None:
            require_positive(self.striping_factor, "striping_factor")
        if self.striping_unit is not None:
            require_positive(self.striping_unit, "striping_unit")
        if self.aggregators_per_ost is not None:
            require_positive(self.aggregators_per_ost, "aggregators_per_ost")

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    def resolve_cb_nodes(self, num_nodes: int, default_per_128_nodes: int = 16) -> int:
        """The effective number of aggregators for an allocation.

        Resolution order: explicit ``cb_nodes``; then ``aggregators_per_ost``
        times the stripe count; then the MPICH-on-BG/Q default of 16
        aggregators per 128 nodes (capped at the node count).
        """
        require_positive(num_nodes, "num_nodes")
        if self.cb_nodes is not None:
            return min(self.cb_nodes, num_nodes * 64)
        if self.aggregators_per_ost is not None and self.striping_factor is not None:
            return self.aggregators_per_ost * self.striping_factor
        default = max(1, (num_nodes * default_per_128_nodes) // 128)
        return default

    def with_updates(self, **changes: object) -> "MPIIOHints":
        """A copy with some fields replaced (dataclass ``replace`` wrapper)."""
        return replace(self, **changes)  # type: ignore[arg-type]
