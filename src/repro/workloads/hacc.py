"""HACC-IO: the I/O kernel of the HACC cosmology code.

Every MPI process of a HACC simulation owns a number of particles, each
described by nine variables (paper, Section V-D):

=========  =======  ==========================
variable   type     bytes
=========  =======  ==========================
XX YY ZZ   float32  4 each (coordinates)
VX VY VZ   float32  4 each (velocity)
phi        float32  4
pid        int64    8
mask       uint16   2
=========  =======  ==========================

for a total of 38 bytes per particle; 25,000 particles ≈ 1 MB per rank.

Two data layouts are produced, matching the paper's evaluation:

* **AoS** (array of structures): the file is a global array of 38-byte
  records; each rank writes its particles as one contiguous block.  One
  collective call.
* **SoA** (structure of arrays): the file holds nine global arrays, one per
  variable, concatenated; each rank writes nine separate blocks (one per
  variable).  Nine collective calls — this is the pattern where the default
  MPI I/O implementation flushes nine partially-filled aggregation buffers
  while TAPIOCA fills its buffers across variables (paper, Fig. 2).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require, require_positive
from repro.workloads.base import Segment, SegmentTable, Workload

#: The nine HACC particle variables with their per-particle byte sizes.
HACC_VARIABLES: tuple[tuple[str, int], ...] = (
    ("XX", 4),
    ("YY", 4),
    ("ZZ", 4),
    ("VX", 4),
    ("VY", 4),
    ("VZ", 4),
    ("phi", 4),
    ("pid", 8),
    ("mask", 2),
)


def hacc_particle_size() -> int:
    """Bytes per particle (38, as stated in the paper)."""
    return sum(size for _name, size in HACC_VARIABLES)


class HACCIOWorkload(Workload):
    """The HACC-IO checkpoint write (or restart read).

    Args:
        num_ranks: number of MPI ranks.
        particles_per_rank: particles owned by each rank (the paper sweeps
            5,000 to 100,000, i.e. roughly 0.2 MB to 3.8 MB per rank).
        layout: ``"aos"`` or ``"soa"``.
        access: ``"write"`` or ``"read"``.
        payload_seed: seed for deterministic payload generation.
    """

    def __init__(
        self,
        num_ranks: int,
        particles_per_rank: int = 25_000,
        *,
        layout: str = "aos",
        access: str = "write",
        payload_seed: int = 0,
    ) -> None:
        self.num_ranks = int(require_positive(num_ranks, "num_ranks"))
        self.particles_per_rank = int(
            require_positive(particles_per_rank, "particles_per_rank")
        )
        layout = layout.lower()
        require(layout in ("aos", "soa"), f"layout must be 'aos' or 'soa', got {layout!r}")
        if access not in ("read", "write"):
            raise ValueError(f"access must be 'read' or 'write', got {access!r}")
        self.layout = layout
        self.access = access
        self.payload_seed = payload_seed
        self.name = f"HACC-IO ({layout.upper()})"

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def total_particles(self) -> int:
        """Total particles across all ranks."""
        return self.num_ranks * self.particles_per_rank

    def num_calls(self) -> int:
        return 1 if self.layout == "aos" else len(HACC_VARIABLES)

    def bytes_per_rank(self, rank: int = 0) -> int:
        return self.particles_per_rank * hacc_particle_size()

    def rank_bytes(self) -> np.ndarray:
        return np.full(self.num_ranks, self.bytes_per_rank(), dtype=np.int64)

    def total_bytes(self) -> int:
        return self.total_particles * hacc_particle_size()

    def segments_for_rank(self, rank: int) -> list[Segment]:
        # One global array per call (AoS: the records; SoA: each variable)
        # after the earlier calls' arrays; within it, ranks own contiguous
        # slices in rank order.
        self.validate_rank(rank)
        names = ["particles"] if self.layout == "aos" else [n for n, _ in HACC_VARIABLES]
        segments, base = [], 0
        for call_index, (name, nbytes) in enumerate(zip(names, self.segment_sizes_per_call())):
            segments.append(Segment(rank, base + rank * nbytes, nbytes, call_index, name))
            base += self.num_ranks * nbytes
        return segments

    def segment_table(self) -> SegmentTable:
        # :meth:`segments_for_rank`'s offsets, for every rank at once.
        sizes = np.array(self.segment_sizes_per_call(), dtype=np.int64)
        bases = self.num_ranks * (np.cumsum(sizes) - sizes)
        rank = np.repeat(np.arange(self.num_ranks, dtype=np.int64), sizes.size)
        call_index = np.tile(np.arange(sizes.size, dtype=np.int64), self.num_ranks)
        nbytes = sizes[call_index]
        return SegmentTable(rank, bases[call_index] + rank * nbytes, nbytes, call_index)

    def segment_sizes_per_call(self) -> list[int]:
        if self.layout == "aos":
            return [self.particles_per_rank * hacc_particle_size()]
        return [self.particles_per_rank * size for _name, size in HACC_VARIABLES]

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    @classmethod
    def from_data_size(
        cls,
        num_ranks: int,
        bytes_per_rank: float,
        *,
        layout: str = "aos",
        access: str = "write",
    ) -> "HACCIOWorkload":
        """Build a workload targeting approximately ``bytes_per_rank`` per rank."""
        particles = max(1, int(round(bytes_per_rank / hacc_particle_size())))
        return cls(num_ranks, particles, layout=layout, access=access)
