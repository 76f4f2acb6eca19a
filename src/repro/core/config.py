"""TAPIOCA configuration.

The tunables the paper exposes (and sweeps in its evaluation): the number of
aggregators, the aggregation buffer size, the placement strategy, and whether
the aggregation and I/O phases are pipelined.  The memory tier used for the
aggregation buffers implements the future-work extension discussed in the
paper's conclusion (DRAM → MCDRAM / burst-buffer staging).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import MIB
from repro.utils.validation import require, require_positive

#: Placement strategies understood by :func:`repro.core.placement.place_aggregators`.
PLACEMENT_STRATEGIES = (
    "topology-aware",  # the paper's C1+C2 objective function
    "shortest-io",     # only the distance to the I/O node (C2-like)
    "max-volume",      # the rank holding the most data
    "rank-order",      # first rank of the partition (ROMIO-like)
    "random",          # seeded random choice (ablation control)
)

#: Memory tiers an aggregation buffer may be placed in.
AGGREGATION_TIERS = ("dram", "mcdram", "ssd")


@dataclass(frozen=True)
class TapiocaConfig:
    """Configuration of a TAPIOCA run.

    Attributes:
        num_aggregators: number of aggregators (= number of partitions).
            ``None`` selects the platform default used in the paper: 16 per
            Pset on the BG/Q, ``aggregators_per_ost * stripe_count`` on
            Lustre machines, and one per 8 nodes otherwise.
        buffer_size: size of each aggregation buffer in bytes (each
            aggregator allocates ``pipeline_depth`` of them).
        pipeline_depth: number of buffers per aggregator; 2 enables the
            double-buffer overlap of aggregation and I/O phases described in
            the paper, 1 disables the overlap (ablation).
        placement: aggregator placement strategy (see
            :data:`PLACEMENT_STRATEGIES`).
        partition_by: ``"contiguous"`` splits ranks into equal contiguous
            blocks; ``"pset"`` makes one partition per machine I/O partition
            (Pset on Mira) with ``num_aggregators`` spread evenly over them.
        aggregation_tier: memory tier hosting aggregation buffers.
        shared_locks: whether collective lock sharing is enabled on the file.
        placement_seed: RNG seed for the ``"random"`` placement strategy.
    """

    num_aggregators: int | None = None
    buffer_size: int = 16 * MIB
    pipeline_depth: int = 2
    placement: str = "topology-aware"
    partition_by: str = "contiguous"
    aggregation_tier: str = "dram"
    shared_locks: bool = True
    placement_seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_aggregators is not None:
            require_positive(self.num_aggregators, "num_aggregators")
        require_positive(self.buffer_size, "buffer_size")
        require(
            self.pipeline_depth in (1, 2),
            f"pipeline_depth must be 1 or 2, got {self.pipeline_depth}",
        )
        require(
            self.placement in PLACEMENT_STRATEGIES,
            f"unknown placement strategy {self.placement!r}; "
            f"expected one of {PLACEMENT_STRATEGIES}",
        )
        require(
            self.partition_by in ("contiguous", "pset"),
            f"partition_by must be 'contiguous' or 'pset', got {self.partition_by!r}",
        )
        require(
            self.aggregation_tier in AGGREGATION_TIERS,
            f"unknown aggregation tier {self.aggregation_tier!r}; "
            f"expected one of {AGGREGATION_TIERS}",
        )

    def resolve_num_aggregators(self, machine, num_ranks: int) -> int:
        """The effective aggregator count for a machine/allocation.

        Defaults follow the paper's experiments: 16 aggregators per Pset on
        the BG/Q; on Lustre machines 4 per OST of the configured stripe; one
        per 8 nodes elsewhere.  The value is clamped to the rank count.
        """
        from repro.machine.mira import MiraMachine
        from repro.storage.lustre import LustreModel

        if self.num_aggregators is not None:
            return max(1, min(self.num_aggregators, num_ranks))
        if isinstance(machine, MiraMachine):
            default = 16 * machine.num_psets
        else:
            filesystem = machine.filesystem()
            if isinstance(filesystem, LustreModel):
                default = 4 * filesystem.stripe.stripe_count
            else:
                default = max(1, machine.num_nodes // 8)
        return max(1, min(default, num_ranks))

    def with_updates(self, **changes: object) -> "TapiocaConfig":
        """A copy with some fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]
