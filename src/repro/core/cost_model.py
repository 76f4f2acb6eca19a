"""The aggregator-placement cost model (paper, Section IV-B).

For one partition and one candidate aggregator ``A``:

* aggregation cost — the cost of every producer shipping its data to ``A``::

      C1 = Σ_{i ∈ V_C, i ≠ A}  ( l · d(i, A) + ω(i, A) / B_{i→A} )

* I/O cost — the cost of ``A`` shipping the aggregated data to the storage
  system's entry point ``IO``::

      C2 = l · d(A, IO) + ω(A, IO) / B_{A→IO}

* objective — ``TopoAware(A) = C1 + C2``, minimised over the candidates.

On platforms where the I/O node locality is not exposed (Theta), ``C2`` is
set to zero, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.topology_iface import TopologyInterface
from repro.obs import recorder as obs_recorder
from repro.utils.validation import require_non_negative


class ContentionFactors(Protocol):
    """Background-traffic slowdown factors for the cost model.

    When other jobs share the machine, the bandwidth available between two
    ranks is no longer the link's nominal bandwidth.  Implementations (e.g.
    :class:`repro.multijob.contention.LinkContentionFactors`) report a
    multiplicative factor >= 1 describing how many concurrent streams the
    narrowest link on the route is shared between.
    """

    def bandwidth_factor(self, src_rank: int, dst_rank: int) -> float:
        """Sharing factor (>= 1) on the route between two ranks."""
        ...

    def bandwidth_factors(
        self, src_ranks: Sequence[int], dst_node: int
    ) -> np.ndarray:
        """Batched twin: the factor of each source rank towards one node.

        :meth:`AggregationCostModel.best_candidate` evaluates every
        candidate of a partition through this call.
        """
        ...


@dataclass(frozen=True)
class CostBreakdown:
    """The two cost terms for one candidate aggregator.

    Attributes:
        candidate: candidate world rank.
        aggregation: C1, seconds.
        io: C2, seconds (0 when the I/O locality is unknown).
    """

    candidate: int
    aggregation: float
    io: float

    @property
    def total(self) -> float:
        """The objective value ``C1 + C2``."""
        return self.aggregation + self.io


class AggregationCostModel:
    """Evaluates the paper's objective function through a topology interface.

    Args:
        iface: the topology abstraction for the machine + mapping.
        contention: optional background-traffic factors from concurrently
            running jobs; ``None`` (the default) reproduces the paper's
            dedicated-machine costs exactly.
    """

    def __init__(
        self,
        iface: TopologyInterface,
        *,
        contention: ContentionFactors | None = None,
    ) -> None:
        self.iface = iface
        self.contention = contention

    def _effective_bandwidth(self, src_rank: int, dst_rank: int) -> float:
        """Rank-to-rank bandwidth after background contention (bytes/s)."""
        bandwidth = self.iface.bandwidth_between_ranks(src_rank, dst_rank)
        if self.contention is not None:
            bandwidth /= max(1.0, self.contention.bandwidth_factor(src_rank, dst_rank))
        return bandwidth

    # ------------------------------------------------------------------ #
    # Individual terms
    # ------------------------------------------------------------------ #

    def aggregation_cost(
        self, candidate: int, volumes: Mapping[int, int]
    ) -> float:
        """C1: cost of every producer rank shipping its bytes to ``candidate``.

        Args:
            candidate: candidate aggregator (world rank).
            volumes: bytes each producer rank of the partition would send,
                keyed by world rank (``ω(i, A)``).
        """
        latency = self.iface.get_latency()
        total = 0.0
        for rank, nbytes in volumes.items():
            if rank == candidate:
                continue
            require_non_negative(nbytes, f"volume of rank {rank}")
            hops = self.iface.distance_between_ranks(rank, candidate)
            bandwidth = self._effective_bandwidth(rank, candidate)
            total += latency * hops + float(nbytes) / bandwidth
        return total

    def io_cost(self, candidate: int, io_bytes: int) -> float:
        """C2: cost of the candidate shipping ``io_bytes`` to its I/O node.

        Returns 0 when the platform does not expose I/O node locality, per
        the paper's rule for Theta.
        """
        require_non_negative(io_bytes, "io_bytes")
        if not self.iface.io_locality_known():
            return 0.0
        distance = self.iface.distance_to_io_node(candidate)
        if distance is None:
            return 0.0
        latency = self.iface.get_latency()
        bandwidth = self.iface.io_bandwidth_of_rank(candidate)
        return latency * distance + float(io_bytes) / bandwidth

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #

    def evaluate(
        self, candidate: int, volumes: Mapping[int, int]
    ) -> CostBreakdown:
        """The full objective for one candidate.

        ``ω(A, IO)`` is the sum of every producer's contribution — the total
        amount the aggregator will eventually push to storage (including its
        own data).
        """
        io_bytes = sum(volumes.values())
        return CostBreakdown(
            candidate=candidate,
            aggregation=self.aggregation_cost(candidate, volumes),
            io=self.io_cost(candidate, io_bytes),
        )

    def best_candidate(
        self, candidates: list[int], volumes: Mapping[int, int]
    ) -> tuple[int, list[CostBreakdown]]:
        """Evaluate every candidate and return (winner, all breakdowns).

        Ties are broken towards the lowest rank, matching the behaviour of
        ``MPI_Allreduce(MINLOC)``.

        All candidates are evaluated against precomputed per-node-pair hop
        and bottleneck-bandwidth arrays instead of O(candidates × senders)
        scalar interface calls; the per-term arithmetic and the accumulation
        order match :meth:`evaluate` exactly, so the breakdowns are
        bit-identical to evaluating each candidate on its own.
        """
        if not candidates:
            raise ValueError("no candidates to evaluate")
        breakdowns = self._batched_breakdowns(candidates, volumes)
        rec = obs_recorder()
        if rec is not None:
            rec.inc("costmodel.candidates", len(candidates))
        winner = min(breakdowns, key=lambda b: (b.total, b.candidate))
        return winner.candidate, breakdowns

    def _batched_breakdowns(
        self, candidates: list[int], volumes: Mapping[int, int]
    ) -> list[CostBreakdown]:
        """All candidates' breakdowns from per-node-pair arrays."""
        # Mirror evaluate()'s validation: a rank's volume is checked by every
        # candidate except the rank itself.
        for rank, nbytes in volumes.items():
            if nbytes >= 0:
                continue
            if all(c == rank for c in candidates):
                continue
            require_non_negative(nbytes, f"volume of rank {rank}")
        producer_ranks = list(volumes.keys())
        producer_nodes = [self.iface.node_of_rank(r) for r in producer_ranks]
        candidate_nodes = [self.iface.node_of_rank(c) for c in candidates]
        node_list = list(dict.fromkeys(producer_nodes + candidate_nodes))
        index_of = {node: i for i, node in enumerate(node_list)}
        hops, bandwidths = self.iface.node_pair_arrays(node_list)
        rows = np.asarray(
            [index_of[node] for node in producer_nodes], dtype=np.int64
        )
        vols = np.asarray(
            [float(volumes[r]) for r in producer_ranks], dtype=np.float64
        )
        latency = self.iface.get_latency()
        io_bytes = sum(volumes.values())
        position = {rank: i for i, rank in enumerate(producer_ranks)}
        breakdowns = []
        for candidate, candidate_node in zip(candidates, candidate_nodes):
            column = index_of[candidate_node]
            # Identical per-term IEEE arithmetic to aggregation_cost(); the
            # final reduction must stay a sequential left-to-right sum over
            # the producers' iteration order to keep the floats bit-equal.
            effective_bw = bandwidths[rows, column]
            if self.contention is not None:
                factors = np.asarray(
                    self.contention.bandwidth_factors(producer_ranks, candidate_node),
                    dtype=np.float64,
                )
                effective_bw = effective_bw / np.maximum(1.0, factors)
            terms = (latency * hops[rows, column] + vols / effective_bw).tolist()
            skip = position.get(candidate)
            total = 0.0
            for index, term in enumerate(terms):
                if index == skip:
                    continue
                total += term
            breakdowns.append(
                CostBreakdown(
                    candidate=candidate,
                    aggregation=total,
                    io=self.io_cost(candidate, io_bytes),
                )
            )
        return breakdowns
