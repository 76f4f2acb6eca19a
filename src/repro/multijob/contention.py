"""Shared-resource contention ledger (max-min fair bandwidth partitioning).

A production machine's interconnect and file system are shared: the paper's
Theta numbers were collected while other jobs loaded the same Lustre OSTs and
dragonfly global links.  This module models that sharing as a *ledger*: one
flow × resource weight matrix over the shared resources (each with a
saturated capacity in bytes/s) and the flows (jobs) that place weighted
demands on them.  The ledger is built once, from every resource and the
flows' ``(row, resource, weight)`` terms, and never changes; callers pick
the active flows by row.

The ledger allocates rates by progressive filling — the classic max-min fair
algorithm: every unfrozen flow's rate grows at the same speed until either
the flow reaches its own demand cap (its isolated bandwidth; a dedicated
machine cannot be beaten) or one of its resources saturates, at which point
the flow freezes.  By construction the allocation *conserves bandwidth*: on
every resource the weighted sum of the granted rates never exceeds the
capacity, which the property tests assert for random instances.

A solve runs the plain sequential filling loop, in the fixed order of the
dict-based loop kept as a test oracle (flows in the order the caller listed
them, resources in registration order), over only the resources that can
bind: one whose active load fits within its capacity with a margin of
``_EPS`` times one plus its weight sum, plus rounding, never binds or
saturates (the lemma is derived in :meth:`ContentionLedger.allocate`), so
rates, freeze decisions and iteration counts are bit-for-bit the oracle's.
No active subset loads a column more than the whole ledger does, so the
ledger keeps, at build, each row's ``(column, weight)`` terms on only the
columns whose whole-ledger load exceeds the margin (:attr:`bindable`);
every solve tests and fills over those terms alone.
"""

from __future__ import annotations

from typing import Sequence

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
        flows: ``(flow_id, demand)`` pairs in row order: the flow's rate cap
            in bytes/s (its isolated bandwidth).
        terms: ``(rows, keys, weights)``, three aligned sequences: flow
            ``rows[t]`` puts the fraction ``weights[t]`` of its bytes on the
            resource ``keys[t]``.  A file striped over 8 OSTs puts weight
            1/8 on each; the LNET pipe every byte crosses gets weight 1.
            Terms of weight <= 0 are dropped.

    The weight matrix is filled by one scatter of the terms; every input
    is checked as a per-entry loop would meet it (resources in order, then
    flows row by row, each row's terms in order), with the same messages.

    Attributes:
        keys: resource keys, one per column.
        capacity: saturated capacity of each column (bytes/s).
        flow_ids: flow ids, one per row.
        demand: each row's rate cap (bytes/s).
        weight: the ``(flows, resources)`` weight matrix.
        touches: ``weight > 0`` — which resources each flow loads.
        bind_floor: the active load ``demand @ weight`` a column must
            exceed to bind or saturate in a solve (see :meth:`allocate`).
        bindable: the columns whose whole-ledger load ``demand @ weight``
            exceeds :attr:`bind_floor` — a superset of the columns any
            solve can bind or saturate.
    """

    def __init__(
        self,
        resources: Sequence[tuple[tuple, float]],
        flows: Sequence[tuple[str, float]],
        terms: tuple[Sequence[int], Sequence[tuple], Sequence[float]],
    ) -> None:
        # Registration: a key's column is its first entry, its capacity its
        # last; each repeat must stay within _EPS of the entry before it.
        keys = [key for key, _ in resources]
        given = np.array([value for _, value in resources], dtype=float)
        column: dict[tuple, int] = {}
        entry = np.array([column.setdefault(key, len(column)) for key in keys], dtype=np.int64)
        order = np.argsort(entry, kind="stable")  # each key's entries in turn
        repeat = np.zeros(entry.size, dtype=bool)  # not the key's first entry
        repeat[order[1:]] = entry[order[1:]] == entry[order[:-1]]
        previous = np.zeros(entry.size, dtype=np.int64)
        previous[order[1:]] = order[:-1]
        existing = given[previous]
        bad = ~(given > 0) | (repeat & (np.abs(existing - given) > _EPS * existing))
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            key, value = resources[first]
            require_positive(value, f"capacity of {key!r}")
            raise ValueError(
                f"resource {key!r} already registered with capacity "
                f"{float(existing[first])}, refusing to change it to {value}"
            )
        self.keys = tuple(column)
        last = np.append(~repeat[order[1:]], True)[: entry.size]  # each key's last entry
        self.capacity = given[order[last]]
        # Flows, then their terms (weights <= 0 dropped), checked row by row.
        self.flow_ids = tuple(flow_id for flow_id, _ in flows)
        self.demand = np.array([demand for _, demand in flows], dtype=float)
        rows, term_keys, values = terms
        values = np.asarray(values, dtype=float)
        kept = np.flatnonzero(~(values <= 0)).tolist()
        columns = [column.get(term_keys[t], -1) for t in kept]
        missing = kept[columns.index(-1)] if -1 in columns else None
        last_row = len(flows) - 1 if missing is None else rows[missing]
        for row, (flow_id, demand) in enumerate(flows[: last_row + 1]):
            require_positive(demand, f"demand of flow {flow_id!r}")
            require(flow_id not in self.flow_ids[:row], f"flow {flow_id!r} already registered")
        if missing is not None:
            raise ValueError(
                f"flow {self.flow_ids[last_row]!r} references unregistered resource "
                f"{term_keys[missing]!r}"
            )
        self.weight = np.zeros((len(flows), len(self.keys)))
        self.weight[np.asarray(rows, dtype=np.int64)[kept], columns] = values[kept]
        self.touches = self.weight > 0.0
        margin = _EPS * (1 + self.weight.sum(axis=0)) + (len(flows) + 2) ** 2 * 2.0**-52
        self.bind_floor = self.capacity * (1.0 - margin)
        self.bindable = self.demand @ self.weight > self.bind_floor
        for array in (
            self.capacity, self.demand, self.weight, self.touches, self.bind_floor, self.bindable
        ):
            array.flags.writeable = False
        self._terms = self.row_terms(self.bindable)
        self._floor = self.bind_floor.tolist()
        self._capacity = self.capacity.tolist()
        self._demand = self.demand.tolist()

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

        The per-row terms kept at build (the :attr:`bindable` columns
        only) give each column's active load as a sequential sum; the
        columns whose load exceeds :attr:`bind_floor` are the candidates,
        and the oracle's loop runs as Python floats over per-row ``(column,
        weight)`` lists of those alone.

        **Candidate-column lemma.**  Over ``n`` active rows, let ``D_c =
        sum_r demand_r * w_rc`` and ``W_c = sum_r w_rc``.  If ``D_c <= cap_c
        * (1 - delta_c)`` with ``delta_c = _EPS * (1 + W_c) + (n + 2)**2 *
        2**-52``, column ``c`` never saturates nor enters the binding set:

        - A flow stays unfrozen only while ``rate < demand * (1 - _EPS)``
          and a step never exceeds the smallest gap ``demand - rate``, so
          ``used_c <= D_c < cap_c * (1 - _EPS)``: never saturated.
        - With unfrozen rows ``U`` the step never exceeds ``s = min_U
          (demand_r - rate_r)``, so ``used_c + s * W^U_c <= D_c`` and the
          headroom ``(cap_c - used_c) / W^U_c >= s + cap_c * delta_c / W_c
          > step + _EPS * cap_c``: never a strict undercut, never within
          the ``_EPS * cap_c`` tolerance.

        The ``(n + 2)**2`` term covers rounding: every float above is a sum
        of at most ``(n + 2)**2`` non-negative rounded terms (``n``
        iterations of at most ``n`` usage updates, plus the rate and load
        sums), off by less than ``(n + 2)**2 * 2**-53`` relative; the factor
        2 covers the comparisons.  :attr:`bind_floor` takes ``n`` and
        ``W_c`` over the whole ledger, which only widens the margin.

        **Static extension.**  Every term of ``D_c`` is non-negative, so the
        load of any active subset is at most the whole ledger's, and the
        whole-ledger sum is computed with no more rounding than the margin
        above allows for.  A column outside :attr:`bindable` therefore
        meets the lemma's condition in every solve, whatever the active
        rows: dropping its terms at build loses nothing.  A pruned column
        thus never moves the step or freezes a flow, and no other column's
        usage reads it: rates, binding and freeze decisions and the
        iteration count are bit-for-bit the oracle's.

        Observability: ``sim.contention_allocations`` counts solves and
        ``sim.contention_iterations`` their water-fill iterations.
        """
        if rows is None:
            rows = range(len(self.flow_ids))
        load: dict[int, float] = {}
        for row in rows:
            flow_demand = self._demand[row]
            for j, w in self._terms[row]:
                load[j] = load.get(j, 0.0) + flow_demand * w
        columns = sorted(j for j, value in load.items() if value > self._floor[j])
        index = {j: k for k, j in enumerate(columns)}
        caps = [self._capacity[j] for j in columns]
        terms = [[(index[j], w) for j, w in self._terms[row] if j in index] for row in rows]
        demand = [self._demand[row] for row in rows]
        rate = [0.0] * len(demand)
        used = [0.0] * len(caps)
        unfrozen = list(range(len(demand)))
        iterations = 0
        while unfrozen:
            iterations += 1
            step = min(demand[i] - rate[i] for i in unfrozen)
            weight_sum = [0.0] * len(caps)
            for i in unfrozen:
                for j, w in terms[i]:
                    weight_sum[j] += w
            binding = []
            for j, cap in enumerate(caps):
                if weight_sum[j] <= 0.0:
                    continue
                headroom = (cap - used[j]) / weight_sum[j]
                if headroom < step - _EPS * cap:
                    step = max(0.0, headroom)
                    binding = [j]
                elif abs(headroom - step) <= _EPS * cap:
                    binding.append(j)
            if step > 0.0:
                for i in unfrozen:
                    rate[i] += step
                    for j, w in terms[i]:
                        used[j] += step * w
            saturated = set(binding)
            saturated.update(j for j, cap in enumerate(caps) if used[j] >= cap * (1 - _EPS))
            running = [i for i in unfrozen if rate[i] < demand[i] * (1.0 - _EPS)]
            if saturated:
                running = [
                    i for i in running if not any(j in saturated for j, _ in terms[i])
                ]
            if len(running) == len(unfrozen):
                # Every remaining flow advanced to its demand cap.
                break
            unfrozen = running
        rec = obs_recorder()
        if rec is not None:
            rec.inc("sim.contention_iterations", iterations)
            rec.inc("sim.contention_allocations")
        return np.array(rate)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def row_terms(self, columns: np.ndarray) -> list[list[tuple[int, float]]]:
        """Each row's ``(column, weight)`` terms on the ``columns`` mask, in
        registration order."""
        terms: list[list[tuple[int, float]]] = [[] for _ in self.flow_ids]
        rows, index = np.nonzero(self.touches & columns)
        for row, j, w in zip(rows.tolist(), index.tolist(), self.weight[rows, index].tolist()):
            terms[row].append((j, w))
        return terms

    def sharing(self, columns: np.ndarray | None = None) -> np.ndarray:
        """``(flows, flows)`` count of the resources both flows touch.

        One product of the boolean touch matrix with its transpose,
        restricted to the ``columns`` mask when one is given.
        """
        touches = self.touches if columns is None else self.touches[:, columns]
        counts = touches.astype(float)
        return counts @ counts.T
