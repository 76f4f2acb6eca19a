"""Property tests for the contention ledger."""

import numpy as np
import pytest

from repro.multijob.contention import ContentionLedger
from repro.utils.rng import seeded_rng
from reference import contention as reference


def build_random_instance(rng, num_resources: int, num_flows: int) -> ContentionLedger:
    keys = [("res", index) for index in range(num_resources)]
    resources = [(key, float(rng.uniform(0.5, 20.0))) for key in keys]
    flows = []
    for flow_index in range(num_flows):
        touched = rng.choice(
            num_resources, size=int(rng.integers(1, num_resources + 1)), replace=False
        )
        weights = {keys[k]: float(rng.uniform(0.05, 1.0)) for k in touched}
        flows.append((f"flow{flow_index}", float(rng.uniform(0.1, 30.0)), weights))
    return reference.ledger(resources, flows)


def rates_by_flow(ledger: ContentionLedger, rows=None) -> dict:
    rows = range(len(ledger.flow_ids)) if rows is None else rows
    rates = ledger.allocate(rows).tolist()
    return {ledger.flow_ids[row]: rate for row, rate in zip(rows, rates)}


def pipe_ledger(capacity, *demands) -> ContentionLedger:
    """Flows ``a``, ``b``, ... with the given demands on one pipe."""
    return reference.ledger(
        [(("pipe",), capacity)],
        [(chr(ord("a") + i), demand, {("pipe",): 1.0}) for i, demand in enumerate(demands)],
    )


class TestLedgerProperties:
    def test_conservation_and_demand_caps_on_random_instances(self):
        rng = seeded_rng(7)
        for _ in range(50):
            num_resources = int(rng.integers(1, 6))
            num_flows = int(rng.integers(1, 8))
            ledger = build_random_instance(rng, num_resources, num_flows)
            rates = ledger.allocate()
            # Bandwidth conservation: no resource is allocated beyond capacity.
            used = reference.utilization(ledger, range(num_flows), rates)
            assert np.all(used <= ledger.capacity * (1.0 + 1e-6))
            # No flow exceeds its own demand.
            assert np.all(rates <= ledger.demand * (1.0 + 1e-6))
            assert np.all(rates >= 0.0)

    def test_allocation_is_work_conserving(self):
        """Every flow is limited by its demand or by a saturated resource."""
        rng = seeded_rng(11)
        for _ in range(25):
            ledger = build_random_instance(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 6))
            )
            rows = range(len(ledger.flow_ids))
            rates = ledger.allocate()
            used = reference.utilization(ledger, rows, rates)
            saturated = used >= ledger.capacity * (1.0 - 1e-6)
            for row in rows:
                at_demand = rates[row] >= ledger.demand[row] * (1.0 - 1e-6)
                at_bottleneck = (ledger.touches[row] & saturated).any()
                assert at_demand or at_bottleneck

    def test_single_flow_gets_min_of_demand_and_capacity(self):
        assert rates_by_flow(pipe_ledger(4.0, 10.0)) == {"a": pytest.approx(4.0)}
        assert rates_by_flow(pipe_ledger(4.0, 3.0)) == {"a": pytest.approx(3.0)}

    def test_equal_flows_split_a_resource_evenly(self):
        rates = rates_by_flow(pipe_ledger(6.0, 10.0, 10.0, 10.0))
        for name in ("a", "b", "c"):
            assert rates[name] == pytest.approx(2.0)

    def test_max_min_fairness_protects_small_flows(self):
        """A small flow keeps its demand; big flows split the remainder."""
        rates = rates_by_flow(pipe_ledger(10.0, 1.0, 100.0, 100.0))
        assert rates["a"] == pytest.approx(1.0)
        assert rates["b"] == pytest.approx(4.5)
        assert rates["c"] == pytest.approx(4.5)

    def test_disjoint_resources_do_not_interact(self):
        ledger = reference.ledger(
            [(("ost", 0), 2.0), (("ost", 1), 2.0)],
            [("a", 5.0, {("ost", 0): 1.0}), ("b", 5.0, {("ost", 1): 1.0})],
        )
        rates = rates_by_flow(ledger)
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(2.0)

    def test_weighted_demand_consumes_proportionally(self):
        """A file striped over two OSTs puts half its rate on each."""
        ledger = reference.ledger(
            [(("ost", 0), 1.0), (("ost", 1), 1.0)],
            [("a", 100.0, {("ost", 0): 0.5, ("ost", 1): 0.5})],
        )
        rates = ledger.allocate()
        assert rates.tolist() == [pytest.approx(2.0)]
        used = reference.utilization(ledger, [0], rates)
        assert used[ledger.keys.index(("ost", 0))] == pytest.approx(1.0)

    def test_active_subset_allocation(self):
        ledger = pipe_ledger(4.0, 10.0, 10.0)
        assert rates_by_flow(ledger, [0]) == {"a": pytest.approx(4.0)}
        both = rates_by_flow(ledger)
        assert both["a"] == pytest.approx(2.0)
        assert both["b"] == pytest.approx(2.0)


class TestLedgerValidation:
    def test_rejects_capacity_change(self):
        pipe = ("pipe",)
        ledger = reference.ledger([(pipe, 4.0), (pipe, 4.0)], [])  # idempotent
        assert ledger.keys == (pipe,)
        with pytest.raises(ValueError):
            reference.ledger([(pipe, 4.0), (pipe, 5.0)], [])

    def test_rejects_unknown_resource_and_duplicate_flow(self):
        pipe = [(("pipe",), 4.0)]
        with pytest.raises(ValueError):
            reference.ledger(pipe, [("a", 1.0, {("nope",): 1.0})])
        reference.ledger(pipe, [("a", 1.0, {("pipe",): 1.0})])
        with pytest.raises(ValueError):
            reference.ledger(
                pipe, [("a", 1.0, {("pipe",): 1.0}), ("a", 1.0, {("pipe",): 1.0})]
            )

    def test_sharing(self):
        ledger = reference.ledger(
            [(("ost", 0), 1.0), (("ost", 1), 1.0)],
            [
                ("a", 1.0, {("ost", 0): 1.0, ("ost", 1): 1.0}),
                ("b", 1.0, {("ost", 1): 1.0}),
            ],
        )
        assert ledger.sharing().tolist() == [[2.0, 1.0], [1.0, 1.0]]

