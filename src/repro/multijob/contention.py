"""Shared-resource contention ledger (max-min fair bandwidth partitioning).

A production machine's interconnect and file system are shared: the paper's
Theta numbers were collected while other jobs loaded the same Lustre OSTs and
dragonfly global links.  This module models that sharing as a *ledger* of
shared resources (each with a saturated capacity in bytes/s) and *flows*
(jobs) that place weighted demands on subsets of them.

The ledger allocates rates by progressive filling — the classic max-min fair
algorithm: every unfrozen flow's rate grows at the same speed until either
the flow reaches its own demand cap (its isolated bandwidth; a dedicated
machine cannot be beaten) or one of its resources saturates, at which point
the flow freezes.  By construction the allocation *conserves bandwidth*: on
every resource the weighted sum of the granted rates never exceeds the
capacity, which the property tests assert for random instances.

The solver water-fills over a flows×resources numpy weight matrix in one
fixed accumulation order (flows in the order the caller listed them,
resources in registration order), so its rates are bit-for-bit equal to the
plain dict-based loop kept as a test oracle; whole allocations are memoised
per active-flow tuple (a fluid runtime re-requests the same set every slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.obs import recorder as obs_recorder
from repro.topology.base import Topology
from repro.topology.mapping import RankMapping
from repro.utils.validation import require, require_positive

#: Relative tolerance used when deciding that a resource is saturated or a
#: flow has reached its demand.
_EPS = 1e-9

#: Cap on memoised allocations per ledger (cleared wholesale when full).
_MAX_ALLOC_CACHE = 512


@dataclass(frozen=True)
class Flow:
    """One job's demand on the shared machine.

    Attributes:
        flow_id: unique identifier (the job name).
        demand: the flow's rate cap in bytes/s — its isolated bandwidth.
        weights: per-resource-key fraction of the flow's bytes crossing the
            resource.  A file striped over 8 OSTs puts weight 1/8 on each;
            the LNET pipe every byte crosses gets weight 1.
    """

    flow_id: str
    demand: float
    weights: Mapping[tuple, float]


@dataclass
class ContentionLedger:
    """Capacity bookkeeping for the shared resources of one machine.

    Resources are registered once with their saturated capacity; flows come
    and go as jobs start and finish.  :meth:`allocate` returns the max-min
    fair rates of the currently registered (or an explicitly given subset of)
    flows.
    """

    resources: dict[tuple, float] = field(default_factory=dict)
    flows: dict[str, Flow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Allocation memo: active-flow tuple -> (rates, water-fill iteration
        # count).  Any registration change invalidates every entry.
        self._alloc_cache: dict[tuple[str, ...], tuple[dict[str, float], int]] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def add_resource(self, key: tuple, capacity: float) -> None:
        """Register a shared resource (idempotent for identical capacity)."""
        require_positive(capacity, f"capacity of {key!r}")
        existing = self.resources.get(key)
        if existing is not None and abs(existing - capacity) > _EPS * existing:
            raise ValueError(
                f"resource {key!r} already registered with capacity {existing}, "
                f"refusing to change it to {capacity}"
            )
        self.resources[key] = capacity
        self._alloc_cache.clear()

    def register_flow(
        self, flow_id: str, demand: float, weights: Mapping[tuple, float]
    ) -> Flow:
        """Register a job's demand; every weighted resource must be known."""
        require_positive(demand, f"demand of flow {flow_id!r}")
        require(flow_id not in self.flows, f"flow {flow_id!r} already registered")
        clean = {}
        for key, weight in weights.items():
            if weight <= 0:
                continue
            require(
                key in self.resources,
                f"flow {flow_id!r} references unregistered resource {key!r}",
            )
            clean[key] = float(weight)
        flow = Flow(flow_id, float(demand), clean)
        self.flows[flow_id] = flow
        self._alloc_cache.clear()
        return flow

    def remove_flow(self, flow_id: str) -> None:
        """Drop a finished job's flow."""
        self.flows.pop(flow_id, None)
        self._alloc_cache.clear()

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(self, active: Iterable[str] | None = None) -> dict[str, float]:
        """Max-min fair rates (bytes/s) for the active flows.

        Args:
            active: flow ids to allocate for (default: every registered
                flow).  Jobs that are between I/O phases are simply omitted.

        Returns:
            Rate per flow id.  The rates satisfy, for every resource ``k``,
            ``sum_i rate_i * w_ik <= capacity_k`` and, for every flow,
            ``rate_i <= demand_i``; no flow can raise its rate without
            lowering that of a flow with a smaller or equal rate.

        Observability: ``sim.contention_iterations`` counts water-fill
        iterations (a memo hit re-counts the iterations the cached
        allocation cost); ``sim.contention_allocations`` counts allocations
        actually solved, so it drops when the memo hits.
        """
        ids = list(self.flows) if active is None else list(active)
        for flow_id in ids:
            require(flow_id in self.flows, f"unknown flow {flow_id!r}")
        rec = obs_recorder()
        key = tuple(ids)
        cached = self._alloc_cache.get(key)
        if cached is not None:
            rate, iterations = cached
            if rec is not None:
                rec.inc("sim.contention_iterations", iterations)
                rec.inc("sim.contention_cache_hits")
            return dict(rate)
        rate, iterations = self._allocate_vectorised(ids)
        if len(self._alloc_cache) >= _MAX_ALLOC_CACHE:
            self._alloc_cache.clear()
        self._alloc_cache[key] = (rate, iterations)
        if rec is not None:
            rec.inc("sim.contention_iterations", iterations)
            rec.inc("sim.contention_allocations")
        return dict(rate)

    def _allocate_vectorised(
        self, ids: Sequence[str]
    ) -> tuple[dict[str, float], int]:
        """Progressive filling over a flows×resources weight matrix.

        Bit-for-bit equal to a dict-based loop that accumulates flow by
        flow (the tests' scalar oracle): ``np.add.accumulate`` along axis 0
        adds rows strictly in order (never pairwise, even for a single
        resource column), so the last row of each accumulation — the
        per-key weight sums and the usage updates — runs through the
        identical sequence of IEEE additions (adding a zero weight is an
        exact no-op on the non-negative partial sums), and the
        binding-resource scan replays the scalar loop's sequential
        first-hit semantics.
        """
        # A resource no active flow touches never binds, fills or freezes
        # anything, so the matrix spans only the touched ones, still in
        # registration order.
        touched = set().union(*(self.flows[fid].weights for fid in ids))
        res_keys = [key for key in self.resources if key in touched]
        index_of = {key: j for j, key in enumerate(res_keys)}
        num_flows, num_res = len(ids), len(res_keys)
        weight = np.zeros((num_flows, num_res))
        for i, flow_id in enumerate(ids):
            for key, value in self.flows[flow_id].weights.items():
                weight[i, index_of[key]] = value
        touches = weight > 0.0
        caps = np.array([self.resources[key] for key in res_keys], dtype=float)
        tol = _EPS * caps
        sat_caps = caps * (1.0 - _EPS)
        demand = np.array([self.flows[fid].demand for fid in ids], dtype=float)
        demand_caps = demand * (1.0 - _EPS)
        rate = np.zeros(num_flows)
        used = np.zeros(num_res)
        unfrozen = np.ones(num_flows, dtype=bool)
        iterations = 0
        while unfrozen.any():
            iterations += 1
            live = np.flatnonzero(unfrozen)
            live_weights = weight[live]
            step = float(np.min(demand[live] - rate[live]))
            weight_sum = np.add.accumulate(live_weights, axis=0)[-1]
            shared = weight_sum > 0.0
            headroom = np.full(num_res, np.inf)
            np.divide(caps - used, weight_sum, out=headroom, where=shared)
            step, binding = self._binding_scan(step, headroom, tol, shared)
            if step > 0.0:
                rate[live] += step
                # One seeded row accumulation == the scalar loop's
                # interleaved ``used[key] += step * weight`` per unfrozen flow.
                used = np.add.accumulate(
                    np.vstack((used, step * live_weights)), axis=0
                )[-1]
            saturated = binding | (used >= sat_caps)
            newly_frozen = unfrozen & (
                (rate >= demand_caps) | np.any(touches & saturated, axis=1)
            )
            if not newly_frozen.any():
                break
            unfrozen &= ~newly_frozen
        rates = {flow_id: float(rate[i]) for i, flow_id in enumerate(ids)}
        return rates, iterations

    @staticmethod
    def _binding_scan(
        step: float, headroom: np.ndarray, tol: np.ndarray, shared: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Replay the scalar loop's sequential binding-resource scan.

        The scalar loop walks resources in order, lowering ``step`` at every
        resource whose headroom undercuts it and restarting the binding list
        there.  Between two strict undercuts ``step`` is constant, so the
        next undercut is simply the first later resource below the current
        step — a vector compare and ``flatnonzero`` per jump instead of a
        Python loop over every resource.
        """
        binding = np.zeros(headroom.shape, dtype=bool)
        position = 0
        last_strict = -1
        while True:
            strict = shared & (headroom < step - tol)
            if position:
                strict[:position] = False
            hits = np.flatnonzero(strict)
            if hits.size == 0:
                break
            last_strict = int(hits[0])
            step = max(0.0, float(headroom[last_strict]))
            position = last_strict + 1
        # Near-binding resources are only collected at the final step value,
        # and only from resources scanned after the last strict undercut.
        near = shared & (np.abs(headroom - step) <= tol)
        if last_strict >= 0:
            near[: last_strict + 1] = False
            binding[last_strict] = True
        binding |= near
        return step, binding

    def utilization(self, rates: Mapping[str, float]) -> dict[tuple, float]:
        """Per-resource bandwidth consumed by ``rates`` (for conservation checks)."""
        used = {key: 0.0 for key in self.resources}
        for flow_id, flow_rate in rates.items():
            for key, weight in self.flows[flow_id].weights.items():
                used[key] += flow_rate * weight
        return used

    def shared_between(self, flow_a: str, flow_b: str) -> list[tuple]:
        """Resource keys two flows both place demand on."""
        a = self.flows[flow_a].weights
        b = self.flows[flow_b].weights
        return sorted(set(a) & set(b), key=repr)


class LinkContentionFactors:
    """Background-traffic factors for the placement cost model.

    Implements :class:`repro.core.cost_model.ContentionFactors` on top of the
    per-link flow accounting of :meth:`repro.topology.base.Topology.link_loads`:
    the factor between two ranks is the worst number of *background* flows
    (other jobs' traffic) sharing any link of the route, plus this job's own
    stream.

    Args:
        topology: the machine interconnect.
        mapping: rank-to-node mapping of the job being placed.
        background_flows: ``(src_node, dst_node)`` pairs of the other jobs'
            concurrently active traffic.
    """

    def __init__(
        self,
        topology: Topology,
        mapping: RankMapping,
        background_flows: Iterable[tuple[int, int]],
    ) -> None:
        self.topology = topology
        self.mapping = mapping
        ids, counts = topology.link_loads(background_flows)
        # Sorted by id for the searchsorted gather in bandwidth_factors.
        order = np.argsort(ids)
        self._link_ids, self._link_counts = ids[order], counts[order]

    def bandwidth_factor(self, src_rank: int, dst_rank: int) -> float:
        """Sharing factor (>= 1) on the route between two ranks."""
        dst_node = self.mapping.node(dst_rank)
        return float(self.bandwidth_factors([src_rank], dst_node)[0])

    def bandwidth_factors(
        self, src_ranks: Sequence[int], dst_node: int
    ) -> np.ndarray:
        """Sharing factor of each rank's route to one destination node.

        One ``route_links`` call over the distinct source nodes, a gather of
        each link's background count and a row max.  Out-of-range ranks
        raise the same ``ValueError`` as :meth:`RankMapping.node` (numpy
        would otherwise wrap a negative rank onto the last node).
        """
        src_nodes = self.mapping.nodes(src_ranks)
        if not self._link_ids.size:
            return np.ones(src_nodes.shape)
        nodes, inverse = np.unique(src_nodes, return_inverse=True)
        links = self.topology.route_links(nodes, np.full(nodes.shape, dst_node))
        slot = np.minimum(
            np.searchsorted(self._link_ids, links), self._link_ids.size - 1
        )
        loads = np.where(
            self._link_ids[slot] == links, self._link_counts[slot], 0
        )
        worst = loads.max(axis=1, initial=0)
        return (1.0 + worst.astype(np.float64))[inverse]
