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
        self, candidates: Sequence[int], volumes: Mapping[int, int]
    ) -> tuple[int, list[CostBreakdown]]:
        """Evaluate every candidate and return (winner, all breakdowns).

        Ties are broken towards the lowest rank, matching the behaviour of
        ``MPI_Allreduce(MINLOC)``.

        C1 is one reduction over a producers × candidates matrix of
        ``l·d + ω/B`` terms gathered from per-node-pair arrays, with each
        candidate's own term zeroed (adding ``+0.0`` to a non-negative sum
        is exact).  ``np.add.accumulate`` along the producer axis adds the
        terms strictly left to right, so every breakdown is bit-identical to
        :meth:`evaluate`; ``np.sum`` would add pairwise and is not.  C2 is
        a gather over the candidates' batched I/O distances and bandwidths.
        """
        if len(candidates) == 0:
            raise ValueError("no candidates to evaluate")
        cands = np.array(candidates, dtype=np.int64)
        producers = np.fromiter(volumes, dtype=np.int64, count=len(volumes))
        vols = np.fromiter(volumes.values(), dtype=np.int64, count=len(volumes))
        if (vols < 0).any():
            # Mirror evaluate()'s validation: a rank's volume is checked by
            # every candidate except the rank itself.
            for position in np.flatnonzero(vols < 0).tolist():
                rank = int(producers[position])
                if (cands != rank).any():
                    require_non_negative(int(vols[position]), f"volume of rank {rank}")
        io_bytes = int(vols.sum())
        require_non_negative(io_bytes, "io_bytes")
        nodes = self.iface.rank_nodes(np.concatenate((producers, cands)))
        candidate_nodes = nodes[producers.size :]
        aggregation = self._aggregation_costs(cands, producers, vols, nodes)
        io = np.zeros(cands.size)
        if self.iface.io_locality_known():
            io = self.iface.get_latency() * self.iface.io_distances(
                candidate_nodes
            ) + float(io_bytes) / self.iface.io_bandwidths(candidate_nodes)
        rec = obs_recorder()
        if rec is not None:
            rec.inc("costmodel.candidates", cands.size)
        winner = int(cands[np.lexsort((cands, aggregation + io))[0]])
        breakdowns = [
            CostBreakdown(candidate=c, aggregation=c1, io=c2)
            for c, c1, c2 in zip(cands.tolist(), aggregation.tolist(), io.tolist())
        ]
        return winner, breakdowns

    def _aggregation_costs(
        self,
        candidates: np.ndarray,
        producers: np.ndarray,
        vols: np.ndarray,
        nodes: np.ndarray,
    ) -> np.ndarray:
        """C1 of every candidate (float64, aligned with ``candidates``).

        ``nodes`` holds the producers' nodes followed by the candidates'.
        """
        if producers.size == 0:
            return np.zeros(candidates.size)
        node_list = np.unique(nodes)
        index = np.searchsorted(node_list, nodes)
        rows, columns = index[: producers.size, None], index[producers.size :]
        hops, bandwidths = self.iface.node_pair_arrays(node_list.tolist())
        effective_bw = bandwidths[rows, columns]
        if self.contention is not None:
            producer_ranks = producers.tolist()
            for column, node in enumerate(nodes[producers.size :].tolist()):
                factors = np.asarray(
                    self.contention.bandwidth_factors(producer_ranks, node),
                    dtype=np.float64,
                )
                effective_bw[:, column] = effective_bw[:, column] / np.maximum(
                    1.0, factors
                )
        # Same per-term IEEE arithmetic as aggregation_cost().
        terms = self.iface.get_latency() * hops[rows, columns] + vols[:, None] / effective_bw
        # Zero each candidate's own term (a candidate need not be a producer).
        terms[producers[:, None] == candidates] = 0.0
        return np.add.accumulate(terms, axis=0)[-1]
