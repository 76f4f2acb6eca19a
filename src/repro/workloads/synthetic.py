"""Synthetic randomised workloads for property-based testing.

The shipped experiment workloads (IOR, HACC-IO) are uniform and regular.
The property-based tests additionally need irregular patterns — ranks with
different amounts of data, variable numbers of calls, odd segment sizes — to
check that the aggregation round scheduling and the MPI-IO semantics hold for
*any* non-overlapping declaration, not just the paper's benchmarks.
"""

from __future__ import annotations

from repro.utils.rng import derive_seed, seeded_rng
from repro.utils.validation import require_positive
from repro.workloads.base import Segment, Workload

#: Substream name for the synthetic workload's jitter draws.  Hashing it into
#: the seed gives this component its own RNG stream, so unrelated additions
#: (e.g. multi-job scheduling drawing from the base stream) cannot perturb
#: existing single-job results through RNG call-order changes.
_RNG_SUBSTREAM = "workloads.synthetic"


class SyntheticWorkload(Workload):
    """A random, non-uniform, non-overlapping workload.

    The file space is carved rank by rank, call by call, into randomly sized
    consecutive extents (so segments never overlap by construction), then
    each rank's extents are shuffled across calls to create non-monotonic
    offset patterns.

    Args:
        num_ranks: number of MPI ranks.
        max_segment_bytes: upper bound on each segment's size.
        calls: number of collective calls.
        seed: RNG seed (deterministic workload for a given seed).
        allow_empty: whether some rank/call combinations may have zero bytes.
    """

    name = "synthetic"

    def __init__(
        self,
        num_ranks: int,
        *,
        max_segment_bytes: int = 4096,
        calls: int = 3,
        seed: int | None = None,
        allow_empty: bool = True,
    ) -> None:
        self.num_ranks = int(require_positive(num_ranks, "num_ranks"))
        require_positive(max_segment_bytes, "max_segment_bytes")
        require_positive(calls, "calls")
        self._calls = int(calls)
        rng = seeded_rng(derive_seed(seed, _RNG_SUBSTREAM))
        minimum = 0 if allow_empty else 1
        self._segments: dict[int, list[Segment]] = {r: [] for r in range(num_ranks)}
        offset = 0
        # Interleave ownership across ranks so file order != rank order.
        order = [(call, rank) for call in range(calls) for rank in range(num_ranks)]
        rng.shuffle(order)
        for call_index, rank in order:
            nbytes = int(rng.integers(minimum, max_segment_bytes + 1))
            if nbytes == 0 and not allow_empty:
                nbytes = 1
            if nbytes > 0:
                self._segments[rank].append(
                    Segment(
                        rank=rank,
                        offset=offset,
                        nbytes=nbytes,
                        call_index=call_index,
                        variable=f"v{call_index}",
                    )
                )
            offset += nbytes
        for rank in range(num_ranks):
            self._segments[rank].sort(key=lambda s: s.call_index)

    def num_calls(self) -> int:
        return self._calls

    def segments_for_rank(self, rank: int) -> list[Segment]:
        self.validate_rank(rank)
        return list(self._segments[rank])

    def is_uniform(self) -> bool:
        return False
