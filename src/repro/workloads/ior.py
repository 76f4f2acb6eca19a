"""IOR-style microbenchmark workload.

IOR (Interleaved-Or-Random) is the benchmark used in the paper's Section V-B
to establish the baseline-vs-tuned MPI I/O comparison (Figs. 7 and 8), and
its "every rank writes one contiguous block" pattern is also exactly the
microbenchmark of Section V-C (Figs. 9 and 10).

The workload modelled here is IOR's segmented shared-file mode: with
``transfer_size`` bytes per rank and ``iterations`` repetitions, rank ``r``
writes iteration ``i`` at offset ``(i * num_ranks + r) * transfer_size``.
Each iteration is one collective call.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import MIB
from repro.utils.validation import require_positive
from repro.workloads.base import Segment, SegmentTable, Workload


class IORWorkload(Workload):
    """Contiguous per-rank blocks in a shared file.

    Args:
        num_ranks: number of MPI ranks.
        transfer_size: bytes written/read per rank per iteration.
        iterations: number of iterations (collective calls).
        access: ``"write"`` or ``"read"``.
        payload_seed: seed for deterministic payload generation.
    """

    name = "IOR"

    def __init__(
        self,
        num_ranks: int,
        transfer_size: int = 1 * MIB,
        *,
        iterations: int = 1,
        access: str = "write",
        payload_seed: int = 0,
    ) -> None:
        self.num_ranks = int(require_positive(num_ranks, "num_ranks"))
        self.transfer_size = int(require_positive(transfer_size, "transfer_size"))
        self.iterations = int(require_positive(iterations, "iterations"))
        if access not in ("read", "write"):
            raise ValueError(f"access must be 'read' or 'write', got {access!r}")
        self.access = access
        self.payload_seed = payload_seed

    def num_calls(self) -> int:
        return self.iterations

    def segments_for_rank(self, rank: int) -> list[Segment]:
        self.validate_rank(rank)
        size = self.transfer_size
        return [
            Segment(rank, (i * self.num_ranks + rank) * size, size, i, f"block{i}")
            for i in range(self.iterations)
        ]

    def segment_table(self) -> SegmentTable:
        rank = np.repeat(np.arange(self.num_ranks, dtype=np.int64), self.iterations)
        call_index = np.tile(np.arange(self.iterations, dtype=np.int64), self.num_ranks)
        nbytes = np.full(rank.size, self.transfer_size, dtype=np.int64)
        offset = (call_index * self.num_ranks + rank) * self.transfer_size
        return SegmentTable(rank, offset, nbytes, call_index)

    def total_bytes(self) -> int:
        # Uniform: avoid the per-rank loop of the base implementation.
        return self.num_ranks * self.transfer_size * self.iterations

    def bytes_per_rank(self, rank: int = 0) -> int:
        return self.transfer_size * self.iterations

    def rank_bytes(self) -> np.ndarray:
        return np.full(self.num_ranks, self.bytes_per_rank(), dtype=np.int64)

    def segment_sizes_per_call(self) -> list[int]:
        return [self.transfer_size] * self.iterations
