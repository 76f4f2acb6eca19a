"""Lustre performance model (Theta / Cray XC40).

Theta's 9.2 PB Lustre file system has 56 OSTs and 56 OSSes (paper, Section
V-A2), reached from the compute fabric through LNET router service nodes
whose placement the vendor does not expose (which is why the paper sets the
C2 cost term to zero on Theta).

A file's bandwidth is governed by its *stripe configuration*: the stripe
count (how many OSTs the file is spread over — 1 by default on Theta, 48 in
the paper's tuned runs) and the stripe size (1 MiB by default, 8–16 MiB
tuned).  Each OST delivers a modest per-stream bandwidth and saturates with a
few concurrent streams; writes that are not aligned to stripe boundaries
cause extent-lock conflicts between clients writing neighbouring regions
(the dominant penalty for the default MPI I/O runs in Figs. 8, 10, 13, 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.base import FileSystemModel, LinearSaturationCurve, SharedResource
from repro.utils.units import MIB, gbps
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class LustreStripeConfig:
    """Per-file striping configuration (``lfs setstripe``).

    Attributes:
        stripe_count: number of OSTs the file is striped over.
        stripe_size: size of each stripe in bytes.
        ost_start: index of the first OST of the file's stripe set
            (``lfs setstripe -i``).  Single-job runs leave the default 0;
            multi-job scenarios use it to place concurrent jobs' files on
            shared or disjoint OST sets.
    """

    stripe_count: int = 1
    stripe_size: int = 1 * MIB
    ost_start: int = 0

    def __post_init__(self) -> None:
        require_positive(self.stripe_count, "stripe_count")
        require_positive(self.stripe_size, "stripe_size")
        if self.ost_start < 0:
            raise ValueError(f"ost_start must be >= 0, got {self.ost_start}")

    def ost_of_offset(self, offset: int) -> int:
        """Index (0-based, within the file's OST set) holding ``offset``."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        return (offset // self.stripe_size) % self.stripe_count

    #: Theta defaults: 1 OST, 1 MiB stripes.
    @classmethod
    def theta_default(cls) -> "LustreStripeConfig":
        return cls(stripe_count=1, stripe_size=1 * MIB)


@dataclass
class LustreModel(FileSystemModel):
    """Analytic Lustre model parameterised by the Theta numbers.

    Attributes:
        num_osts: OSTs available in the file system (56 on Theta).
        stripe: striping configuration of the target file.
        ost_write_bandwidth: asymptotic per-OST write bandwidth (bytes/s).
        ost_read_bandwidth: asymptotic per-OST read bandwidth (bytes/s).
        streams_half_saturation: concurrent write streams per OST at which
            half the per-OST peak is reached (a single client cannot saturate
            an OST; writes need several concurrent streams).
        read_half_saturation: same, for reads (reads saturate much faster).
        write_overhead: fixed per-write-request overhead (seconds).
        read_overhead: fixed per-read-request overhead (seconds).
        lnet_bandwidth: total bandwidth through the LNET routers serving this
            job's traffic (bytes/s); an additional cap on very wide runs.
    """

    name: str = "Lustre"

    num_osts: int = 56
    stripe: LustreStripeConfig = field(default_factory=LustreStripeConfig.theta_default)
    ost_write_bandwidth: float = gbps(0.6)
    ost_read_bandwidth: float = gbps(1.2)
    streams_half_saturation: float = 4.0
    read_half_saturation: float = 1.0
    write_overhead: float = 1.5e-3
    read_overhead: float = 0.8e-3
    lnet_bandwidth: float = gbps(56.0)

    def __post_init__(self) -> None:
        require_positive(self.num_osts, "num_osts")
        require(
            self.stripe.stripe_count <= self.num_osts,
            f"stripe_count {self.stripe.stripe_count} exceeds num_osts {self.num_osts}",
        )
        require_positive(self.ost_write_bandwidth, "ost_write_bandwidth")
        require_positive(self.ost_read_bandwidth, "ost_read_bandwidth")

    # ------------------------------------------------------------------ #
    # Striping helpers
    # ------------------------------------------------------------------ #

    def with_stripe(self, stripe: LustreStripeConfig) -> "LustreModel":
        """A copy of this model targeting a file with a different striping."""
        return LustreModel(
            num_osts=self.num_osts,
            stripe=stripe,
            ost_write_bandwidth=self.ost_write_bandwidth,
            ost_read_bandwidth=self.ost_read_bandwidth,
            streams_half_saturation=self.streams_half_saturation,
            read_half_saturation=self.read_half_saturation,
            write_overhead=self.write_overhead,
            read_overhead=self.read_overhead,
            lnet_bandwidth=self.lnet_bandwidth,
        )

    def ost_of_offset(self, offset: int) -> int:
        """OST index (within the file's stripe set) holding byte ``offset``."""
        return self.stripe.ost_of_offset(offset)

    def ost_indices(self) -> list[int]:
        """Global indices of the OSTs the configured file is striped over."""
        return [
            (self.stripe.ost_start + k) % self.num_osts
            for k in range(self.stripe.stripe_count)
        ]

    # ------------------------------------------------------------------ #
    # FileSystemModel interface
    # ------------------------------------------------------------------ #

    def aggregate_bandwidth(self, streams: int, access: str = "write") -> float:
        """OST bandwidths in parallel, saturating per OST, capped by LNET."""
        streams = max(1, int(streams))
        count = self.stripe.stripe_count
        if access == "write":
            per_ost_peak = self.ost_write_bandwidth
            half_saturation = self.streams_half_saturation
        else:
            per_ost_peak = self.ost_read_bandwidth
            half_saturation = self.read_half_saturation
        streams_per_ost = max(1.0, streams / count)
        curve = LinearSaturationCurve(
            peak=per_ost_peak, half_saturation=half_saturation
        )
        per_ost = curve(int(round(streams_per_ost)))
        return min(per_ost * count, self.lnet_bandwidth)

    def operation_overhead(self, access: str = "write") -> float:
        return self.write_overhead if access == "write" else self.read_overhead

    def alignment_unit(self) -> int:
        return self.stripe.stripe_size

    def access_penalty(
        self,
        request_size: float,
        *,
        aligned: bool,
        shared_locks: bool,
        streams: int,
        access: str = "write",
    ) -> float:
        """Extent-lock and small-request penalties.

        Writes that do not start/end on stripe boundaries force neighbouring
        clients to fight over the same OST extent lock; the resulting
        ping-pong is the main reason the untuned MPI I/O write bandwidth on
        Theta is an order of magnitude below the tuned one.  Lock sharing
        (``shared_locks=True``, enabled in collective mode by the tuned
        baseline and by TAPIOCA) suppresses most of it.

        Requests much smaller than the stripe additionally waste each OST
        round trip, independent of locking.
        """
        if access == "read":
            # Reads take read locks which are shared; only the small-request
            # inefficiency applies.
            smallness = self._small_request_factor(request_size)
            return smallness
        penalty = self._small_request_factor(request_size)
        if request_size > self.stripe.stripe_size and self.stripe.stripe_count > 1:
            # Requests spanning several stripes touch several OSTs at once;
            # concurrent writers then conflict on extent locks across OSTs.
            # This is why an aggregation buffer larger than the stripe size
            # (ratios 2:1 and 4:1 in Table I) performs worse than the 1:1
            # match even though each request is bigger.
            span = float(request_size) / self.stripe.stripe_size - 1.0
            penalty *= 1.0 + 0.35 * min(6.0, span)
        if not aligned:
            # Extents that do not start/end on stripe boundaries make
            # neighbouring writers fight over the same OST extent lock; the
            # lock splitting/revocation traffic grows with the number of
            # writers per OST.  This is the dominant cost of the (unaligned)
            # file domains Cray MPI produces for HACC-IO on Theta.
            penalty *= 1.5 + 0.4 * min(16.0, streams / self.stripe.stripe_count)
            if not shared_locks and streams > 1:
                contention = min(4.0, 1.0 + 0.5 * (streams / self.stripe.stripe_count))
                penalty *= contention
        elif not shared_locks and streams > self.stripe.stripe_count:
            # Aligned but more writers than OSTs: writers of successive
            # stripes on the same OST still conflict without lock sharing.
            penalty *= 1.0 + min(
                2.0, 0.25 * (streams / self.stripe.stripe_count - 1.0)
            )
        return penalty

    def _small_request_factor(self, request_size: float) -> float:
        """Penalty for requests smaller than the stripe size (RPC inefficiency)."""
        stripe = self.stripe.stripe_size
        if request_size >= stripe:
            return 1.0
        fraction = max(float(request_size) / stripe, 1.0 / 64.0)
        # A request covering a fraction f of a stripe achieves roughly
        # f^0.35 of the streaming efficiency: 1 MiB requests on an 8 MiB
        # stripe reach ~50%, 64 KiB requests ~20%.
        return min(6.0, fraction ** -0.35)

    def shared_resources(self, access: str = "write") -> list[SharedResource]:
        """Every OST plus the LNET router pool, at saturated capacities.

        These are machine-wide resources: two jobs whose files stripe over
        the same OST index contend on the same ``("lustre-ost", i)`` entry,
        and every job's traffic crosses the shared ``("lustre-lnet",)`` pipe.
        """
        per_ost = (
            self.ost_write_bandwidth if access == "write" else self.ost_read_bandwidth
        )
        resources = [
            SharedResource(("lustre-ost", index), per_ost)
            for index in range(self.num_osts)
        ]
        resources.append(SharedResource(("lustre-lnet",), self.lnet_bandwidth))
        return resources

    # ------------------------------------------------------------------ #
    # Theta-specific helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def theta(cls, stripe: LustreStripeConfig | None = None) -> "LustreModel":
        """The Theta file system with an optional per-file striping override."""
        return cls(stripe=stripe or LustreStripeConfig.theta_default())

    def peak_write_bandwidth(self) -> float:
        """Peak write bandwidth for the configured striping (bytes/s)."""
        return min(
            self.ost_write_bandwidth * self.stripe.stripe_count, self.lnet_bandwidth
        )
