"""Shared-resource contention ledger (max-min fair bandwidth partitioning).

A production machine's interconnect and file system are shared: the paper's
Theta numbers were collected while other jobs loaded the same Lustre OSTs and
dragonfly global links.  This module models that sharing as a *ledger*: one
flow × resource weight matrix over the shared resources (each with a
saturated capacity in bytes/s) and the flows (jobs) that place weighted
demands on them.  The ledger is built once, from every resource and flow,
and never changes; callers pick the active flows by row.

The ledger allocates rates by progressive filling — the classic max-min fair
algorithm: every unfrozen flow's rate grows at the same speed until either
the flow reaches its own demand cap (its isolated bandwidth; a dedicated
machine cannot be beaten) or one of its resources saturates, at which point
the flow freezes.  By construction the allocation *conserves bandwidth*: on
every resource the weighted sum of the granted rates never exceeds the
capacity, which the property tests assert for random instances.

The solver water-fills over the active rows in one fixed accumulation order
(flows in the order the caller listed them, resources in registration
order), so its rates are bit-for-bit equal to the plain dict-based loop kept
as a test oracle.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.obs import recorder as obs_recorder
from repro.utils.validation import require, require_positive

#: Relative tolerance used when deciding that a resource is saturated or a
#: flow has reached its demand.
_EPS = 1e-9


class ContentionLedger:
    """The flow × resource weight matrix of one machine's shared resources.

    Built once from every resource and flow; its arrays are read-only.

    Args:
        resources: ``(key, capacity)`` pairs in registration order (the
            column order).  A key may repeat with the same capacity.
        flows: ``(flow_id, demand, weights)`` triples in row order: the
            flow's rate cap in bytes/s (its isolated bandwidth) and, per
            resource key, the fraction of its bytes crossing the resource.
            A file striped over 8 OSTs puts weight 1/8 on each; the LNET
            pipe every byte crosses gets weight 1.

    Attributes:
        keys: resource keys, one per column.
        capacity: saturated capacity of each column (bytes/s).
        flow_ids: flow ids, one per row.
        demand: each row's rate cap (bytes/s).
        weight: the ``(flows, resources)`` weight matrix.
        touches: ``weight > 0`` — which resources each flow loads.
    """

    def __init__(
        self,
        resources: Iterable[tuple[tuple, float]],
        flows: Iterable[tuple[str, float, Mapping[tuple, float]]],
    ) -> None:
        capacity: dict[tuple, float] = {}
        for key, value in resources:
            require_positive(value, f"capacity of {key!r}")
            existing = capacity.get(key)
            if existing is not None and abs(existing - value) > _EPS * existing:
                raise ValueError(
                    f"resource {key!r} already registered with capacity "
                    f"{existing}, refusing to change it to {value}"
                )
            capacity[key] = float(value)
        self.keys = tuple(capacity)
        self.capacity = np.array(list(capacity.values()), dtype=float)
        column = {key: j for j, key in enumerate(self.keys)}
        flows = list(flows)
        self.flow_ids = tuple(flow_id for flow_id, _, _ in flows)
        self.demand = np.zeros(len(flows))
        self.weight = np.zeros((len(flows), len(self.keys)))
        for row, (flow_id, demand, weights) in enumerate(flows):
            require_positive(demand, f"demand of flow {flow_id!r}")
            require(
                flow_id not in self.flow_ids[:row],
                f"flow {flow_id!r} already registered",
            )
            self.demand[row] = demand
            for key, value in weights.items():
                if value <= 0:
                    continue
                require(
                    key in column,
                    f"flow {flow_id!r} references unregistered resource {key!r}",
                )
                self.weight[row, column[key]] = value
        self.touches = self.weight > 0.0
        for array in (self.capacity, self.demand, self.weight, self.touches):
            array.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """Max-min fair rates (bytes/s) of the flows in ``rows``.

        Args:
            rows: row indices of the active flows, in the order the solver
                visits them (default: every flow).  Jobs that are between
                I/O phases are simply omitted.

        Returns:
            One rate per entry of ``rows``.  The rates satisfy, for every
            resource ``k``, ``sum_i rate_i * w_ik <= capacity_k`` and, for
            every flow, ``rate_i <= demand_i``; no flow can raise its rate
            without lowering that of a flow with a smaller or equal rate.

        The solve restricts the matrix to the active rows and to the
        columns they touch, in registration order: a resource no active
        flow touches never binds, fills or freezes anything.  It is
        bit-for-bit equal to a dict-based loop that accumulates flow by flow
        (the tests' scalar oracle): ``np.add.accumulate`` along axis 0 adds
        rows strictly in order (never pairwise, even for a single resource
        column), so the last row of each accumulation — the per-key weight
        sums and the usage updates — runs through the identical sequence of
        IEEE additions (adding a zero weight is an exact no-op on the
        non-negative partial sums), and the binding-resource scan replays
        the scalar loop's sequential first-hit semantics.

        Observability: ``sim.contention_allocations`` counts solves and
        ``sim.contention_iterations`` their water-fill iterations.
        """
        if rows is None:
            rows = range(len(self.flow_ids))
        rows = np.asarray(rows, dtype=np.intp)
        columns = np.flatnonzero(self.touches[rows].any(axis=0))
        weight = self.weight[np.ix_(rows, columns)]
        touches = weight > 0.0
        caps = self.capacity[columns]
        tol = _EPS * caps
        sat_caps = caps * (1.0 - _EPS)
        demand = self.demand[rows]
        demand_caps = demand * (1.0 - _EPS)
        rate = np.zeros(rows.size)
        used = np.zeros(columns.size)
        unfrozen = np.ones(rows.size, dtype=bool)
        iterations = 0
        while unfrozen.any():
            iterations += 1
            live = np.flatnonzero(unfrozen)
            live_weights = weight[live]
            step = float(np.min(demand[live] - rate[live]))
            weight_sum = np.add.accumulate(live_weights, axis=0)[-1]
            shared = weight_sum > 0.0
            headroom = np.full(columns.size, np.inf)
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
        rec = obs_recorder()
        if rec is not None:
            rec.inc("sim.contention_iterations", iterations)
            rec.inc("sim.contention_allocations")
        return rate

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

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def utilization(self, rows: Sequence[int], rates: np.ndarray) -> np.ndarray:
        """Bandwidth each resource carries when ``rows`` run at ``rates``.

        One row accumulation in ``rows`` order: ``np.add.accumulate`` adds
        each column's ``rate * weight`` terms flow by flow, as a per-flow
        loop does (a BLAS ``rates @ weight`` would block the sum).
        """
        rows = np.asarray(rows, dtype=np.intp)
        terms = np.asarray(rates)[:, None] * self.weight[rows]
        return np.add.accumulate(
            np.vstack((np.zeros(len(self.keys)), terms)), axis=0
        )[-1]

    def sharing(self, columns: np.ndarray | None = None) -> np.ndarray:
        """``(flows, flows)`` count of the resources both flows touch.

        One product of the boolean touch matrix with its transpose,
        restricted to the ``columns`` mask when one is given.
        """
        touches = self.touches if columns is None else self.touches[:, columns]
        counts = touches.astype(float)
        return counts @ counts.T

    def shared_between(self, row_a: int, row_b: int) -> list[tuple]:
        """Resource keys two flows both place demand on (``repr`` order)."""
        both = np.flatnonzero(self.touches[row_a] & self.touches[row_b])
        return sorted((self.keys[j] for j in both.tolist()), key=repr)

