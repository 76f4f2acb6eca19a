"""The vectorised contention engine against its scalar oracles.

Three contracts, checked against ``tests/reference/contention.py``:

- ``ContentionLedger.allocate`` (numpy water-filling) is *bit-for-bit*
  equal to the dict-based scalar loop — both run the identical sequence of
  IEEE additions — across seeded instances spanning the demand-capped,
  resource-capped and mixed freeze regimes.
- The allocation memo only changes how often the solver runs
  (``sim.contention_allocations``), never the water-fill work it reports
  (``sim.contention_iterations``) or the rates, and every registration
  change invalidates it.
- ``MultiJobRuntime`` produces outcomes and peak utilizations identical to
  the per-job scalar slice loop, and raises :class:`StarvedFlowError`
  instead of spinning when no byte can ever move again.
"""

from __future__ import annotations

import pytest

from repro.multijob.contention import ContentionLedger, LinkContentionFactors
from repro.obs.recorder import collecting
from repro.utils.rng import seeded_rng
from reference import contention as reference
from reference.cost_model import best_candidate as reference_best_candidate
from reference.cost_model import elect as reference_elect

#: (name, capacity range, demand range) — the three freeze regimes: flows
#: that stop at their own demand, flows frozen by saturated resources, and
#: instances exercising both in one solve.
_REGIMES = (
    ("demand-capped", (50.0, 200.0), (0.1, 5.0)),
    ("resource-capped", (0.5, 5.0), (10.0, 30.0)),
    ("mixed", (0.5, 50.0), (0.1, 30.0)),
)


def build_instance(rng, capacity_range, demand_range) -> ContentionLedger:
    ledger = ContentionLedger()
    num_resources = int(rng.integers(1, 9))
    num_flows = int(rng.integers(1, 10))
    keys = [("res", index) for index in range(num_resources)]
    for key in keys:
        ledger.add_resource(key, float(rng.uniform(*capacity_range)))
    for flow_index in range(num_flows):
        touched = rng.choice(
            num_resources, size=int(rng.integers(1, num_resources + 1)), replace=False
        )
        weights = {keys[k]: float(rng.uniform(0.05, 1.0)) for k in touched}
        ledger.register_flow(
            f"flow{flow_index}", float(rng.uniform(*demand_range)), weights
        )
    return ledger


def assert_valid_max_min(ledger: ContentionLedger, rates: dict) -> None:
    """Conservation, demand caps, and max-min (work-conserving) optimality."""
    used = ledger.utilization(rates)
    for key, usage in used.items():
        assert usage <= ledger.resources[key] * (1.0 + 1e-6)
    for flow_id, rate in rates.items():
        flow = ledger.flows[flow_id]
        assert 0.0 <= rate <= flow.demand * (1.0 + 1e-6)
        # Max-min optimality: a flow below its demand must touch a
        # saturated resource — otherwise its rate could rise without
        # lowering anyone's, contradicting max-min fairness.
        if rate < flow.demand * (1.0 - 1e-6):
            assert any(
                used[key] >= ledger.resources[key] * (1.0 - 1e-6)
                for key in flow.weights
            ), f"{flow_id} is below demand with headroom everywhere"


class TestVectorisedEqualsScalar:
    @pytest.mark.parametrize(
        "regime,capacity_range,demand_range",
        _REGIMES,
        ids=[name for name, _, _ in _REGIMES],
    )
    def test_bit_equal_rates_on_seeded_instances(
        self, regime, capacity_range, demand_range
    ):
        """~200 instances across the regimes; 1e-12 relative tolerance.

        The paths are designed to be bit-for-bit equal (identical IEEE op
        order), so the comparison is exact equality — strictly tighter than
        the documented 1e-12 relative bound.
        """
        rng = seeded_rng(2017)
        for _ in range(70):
            ledger = build_instance(rng, capacity_range, demand_range)
            ids = list(ledger.flows)
            fast = ledger.allocate(ids)
            scalar = reference.allocate(ledger, ids)
            assert fast == scalar, f"{regime}: fast and scalar rates diverged"
            assert_valid_max_min(ledger, fast)
            assert_valid_max_min(ledger, scalar)

    def test_subset_and_reordered_active_sets_stay_bit_equal(self):
        rng = seeded_rng(7)
        ledger = build_instance(rng, (0.5, 20.0), (0.1, 30.0))
        ids = list(ledger.flows)
        for active in (ids[::2], list(reversed(ids)), ids[:1]):
            fast = ledger.allocate(active)
            assert reference.allocate(ledger, active) == fast

    def test_single_resource_instances_stay_bit_equal(self):
        """One shared resource is the degenerate matrix shape (one column)."""
        rng = seeded_rng(13)
        for _ in range(30):
            ledger = ContentionLedger()
            ledger.add_resource(("pipe",), float(rng.uniform(0.5, 10.0)))
            for index in range(int(rng.integers(1, 8))):
                ledger.register_flow(
                    f"flow{index}",
                    float(rng.uniform(0.1, 10.0)),
                    {("pipe",): float(rng.uniform(0.05, 1.0))},
                )
            fast = ledger.allocate()
            assert reference.allocate(ledger) == fast


class TestAllocationMemo:
    def build(self) -> ContentionLedger:
        ledger = ContentionLedger()
        ledger.add_resource(("ost", 0), 4.0)
        ledger.add_resource(("ost", 1), 2.0)
        ledger.register_flow("a", 10.0, {("ost", 0): 1.0, ("ost", 1): 0.5})
        ledger.register_flow("b", 10.0, {("ost", 1): 1.0})
        return ledger

    def test_repeat_allocations_are_served_from_the_memo(self):
        ledger = self.build()
        with collecting() as rec:
            first = ledger.allocate(["a", "b"])
            for _ in range(4):
                assert ledger.allocate(["a", "b"]) == first
            assert rec.counter("sim.contention_allocations").value == 1
            assert rec.counter("sim.contention_cache_hits").value == 4

    def test_iteration_count_is_identical_on_both_paths_and_on_memo_hits(self):
        ledger = self.build()
        with collecting() as rec:
            ledger.allocate(["a", "b"])
            solved = rec.counter("sim.contention_iterations").value
            ledger.allocate(["a", "b"])  # memo hit re-counts the same work
            assert rec.counter("sim.contention_iterations").value == 2 * solved
        _, scalar_iterations = reference.allocate_scalar(ledger, ["a", "b"])
        assert solved == scalar_iterations

    @pytest.mark.parametrize(
        "invalidate",
        [
            lambda ledger: ledger.register_flow("c", 1.0, {("ost", 0): 1.0}),
            lambda ledger: ledger.remove_flow("b"),
            lambda ledger: ledger.add_resource(("lnet",), 8.0),
        ],
        ids=["register_flow", "remove_flow", "add_resource"],
    )
    def test_registration_changes_invalidate_the_memo(self, invalidate):
        ledger = self.build()
        with collecting() as rec:
            ledger.allocate(["a"])
            invalidate(ledger)
            ledger.allocate(["a"])
            assert rec.counter("sim.contention_allocations").value == 2
            assert rec.counter("sim.contention_cache_hits").value == 0

    def test_memo_hits_return_independent_copies(self):
        ledger = self.build()
        first = ledger.allocate(["a", "b"])
        first["a"] = -1.0
        assert ledger.allocate(["a", "b"])["a"] != -1.0


class TestRuntimeEquivalence:
    def build_runtime(self, mb_per_rank: int = 64, jobs: int = 4):
        from repro.core.config import TapiocaConfig
        from repro.machine.theta import ThetaMachine
        from repro.multijob import JobSpec, MultiJobRuntime
        from repro.utils.units import MB, MIB
        from repro.workloads.ior import IORWorkload

        machine = ThetaMachine(4 * jobs)
        specs = [
            JobSpec(
                name=f"job{index}",
                num_nodes=4,
                workload=IORWorkload(64, mb_per_rank * MB),
                ranks_per_node=16,
                config=TapiocaConfig(num_aggregators=16, buffer_size=8 * MIB),
                stripe=machine.stripe_for_job(
                    ost_start=2 * index, stripe_count=8, stripe_size=8 * MIB
                ),
                arrival_s=3.0 * index,
            )
            for index in range(jobs)
        ]
        return MultiJobRuntime(machine, specs, slice_s=0.5)

    def test_fast_and_scalar_runs_are_bit_identical(self):
        fast = self.build_runtime().run()
        scalar = reference.run_scalar(self.build_runtime())
        assert fast.peak_utilization == scalar.peak_utilization
        for fast_outcome, scalar_outcome in zip(fast.outcomes, scalar.outcomes):
            assert fast_outcome == scalar_outcome

    def test_multi_gigabyte_jobs_complete_on_both_paths(self):
        """Regression: totals whose float ulp exceeds the absolute byte
        tolerance used to strand jobs in a zero-width-slice loop."""
        for run in (lambda runtime: runtime.run(), reference.run_scalar):
            report = run(self.build_runtime(mb_per_rank=2048, jobs=2))
            assert all(outcome.finish_s > 0.0 for outcome in report.outcomes)
            assert report.conserves_bandwidth()


class TestStarvedFlowDetection:
    def test_all_zero_rates_raise_instead_of_spinning(self, monkeypatch):
        from repro.multijob.runtime import StarvedFlowError

        runtime = TestRuntimeEquivalence().build_runtime(jobs=2)
        real_allocate = runtime.ledger.allocate
        solo_calls = {"left": len(runtime.jobs)}

        def saturated(active=None):
            rates = real_allocate(active)
            # The prologue's per-job solo-rate probes pass through; once
            # the fluid loop starts, the ledger grants nothing — a fully
            # saturated machine with zero headroom on every resource.
            if solo_calls["left"] > 0:
                solo_calls["left"] -= 1
                return rates
            return {name: 0.0 for name in rates}

        monkeypatch.setattr(runtime.ledger, "allocate", saturated)
        with pytest.raises(StarvedFlowError, match="job0.*saturated"):
            runtime.run()

    def test_zero_rates_with_a_pending_arrival_jump_to_it(self, monkeypatch):
        """Starvation is only terminal once no arrival can free capacity."""
        from repro.multijob.runtime import StarvedFlowError

        runtime = TestRuntimeEquivalence().build_runtime(jobs=2)
        real_allocate = runtime.ledger.allocate
        solo_calls = {"left": len(runtime.jobs)}
        calls = []

        def starve_until_both_arrive(active=None):
            rates = real_allocate(active)
            if solo_calls["left"] > 0:
                solo_calls["left"] -= 1
                return rates
            calls.append(sorted(rates))
            if len(rates) < 2:
                return {name: 0.0 for name in rates}
            return rates

        monkeypatch.setattr(runtime.ledger, "allocate", starve_until_both_arrive)
        try:
            report = runtime.run()
        except StarvedFlowError:  # pragma: no cover - would be a regression
            pytest.fail("a pending arrival must rescue a zero-rate slice")
        # The solo job was starved, so nothing finished before job1 arrived.
        assert min(o.start_s for o in report.outcomes) >= 0.0
        assert any(len(names) == 2 for names in calls)


class TestPlacementContentionFastPath:
    def build_model(self, background):
        from repro.core.cost_model import AggregationCostModel
        from repro.core.topology_iface import TopologyInterface
        from repro.machine.theta import ThetaMachine
        from repro.topology.mapping import block_mapping

        machine = ThetaMachine(16)
        mapping = block_mapping(64, machine.num_nodes, 4)
        iface = TopologyInterface(machine, mapping)
        contention = LinkContentionFactors(machine.topology, mapping, background)
        return AggregationCostModel(iface, contention=contention), mapping, contention

    def test_batched_factors_match_the_scalar_accessor(self):
        import numpy as np

        background = [(0, 9), (1, 12), (3, 15)]
        _, mapping, contention = self.build_model(background)
        src_ranks = list(range(0, 64, 3))
        factors = contention.bandwidth_factors(src_ranks, 9)
        dst_rank = 9 * 4  # first rank mapped to node 9 under block mapping
        expected = [
            contention.bandwidth_factor(rank, dst_rank) for rank in src_ranks
        ]
        assert np.asarray(factors).tolist() == expected

    @pytest.mark.parametrize("bad_rank", [-1, 64], ids=["negative", "num_ranks"])
    def test_batched_factors_reject_out_of_range_ranks(self, bad_rank):
        """A negative rank must not wrap onto the last node."""
        _, _, contention = self.build_model([(0, 9), (15, 3)])
        message = f"rank {bad_rank} out of range \\[0, 64\\)"
        with pytest.raises(ValueError, match=message):
            contention.bandwidth_factor(bad_rank, 0)
        with pytest.raises(ValueError, match=message):
            contention.bandwidth_factors([0, bad_rank, 5], 9)

    @pytest.mark.parametrize("granularity", ["rank", "node"])
    def test_election_with_contention_is_bit_identical(self, granularity):
        """Mixed-size partitions: each candidate column divided by its
        factors equals per-candidate evaluation under contention."""
        from repro.core.cost_model import CandidateSets
        from repro.core.partitioning import Partition

        rng = seeded_rng(7)
        background = [(int(a), int(b)) for a, b in rng.integers(0, 16, (12, 2))]
        model, _, _ = self.build_model(background)
        partitions = [
            Partition(index, ranks, [1024 * (1 + rank % 7) for rank in ranks])
            for index, ranks in enumerate(
                [range(0, 64, 2), range(1, 9), [5], range(20, 60, 3), range(40, 46)]
            )
        ]
        sets = CandidateSets.of(partitions, model.iface, granularity)
        aggregation, io = model.elect(sets)
        expected = reference_elect(model, partitions, granularity)
        winners = sets.ranks[sets.argmin(aggregation + io)].tolist()
        assert winners == [winner for winner, _ in expected]
        breakdowns = [b for _, rows in expected for b in rows]
        assert sets.ranks.tolist() == [b.candidate for b in breakdowns]
        assert aggregation.tolist() == [b.aggregation for b in breakdowns]
        assert io.tolist() == [b.io for b in breakdowns]

    def test_best_candidate_with_contention_is_bit_identical(self):
        rng = seeded_rng(5)
        background = [(int(a), int(b)) for a, b in rng.integers(0, 16, (12, 2))]
        model, _, _ = self.build_model(background)
        from repro.core.partitioning import Partition
        from repro.core.placement import place_aggregators

        ranks = list(range(0, 64, 2))
        partition = Partition(0, ranks, [int(1024 * (1 + rank % 7)) for rank in ranks])
        volumes = partition.volume_map()
        placement = place_aggregators(
            [partition], model.iface, contention=model.contention
        )
        scalar_winner, scalar_breakdowns = reference_best_candidate(
            model, ranks, volumes
        )
        assert placement.aggregators == [scalar_winner]
        assert placement.breakdowns[0] == next(
            b for b in scalar_breakdowns if b.candidate == scalar_winner
        )
        aggregation, io = placement.costs
        assert aggregation.tolist() == [b.aggregation for b in scalar_breakdowns]
        assert io.tolist() == [b.io for b in scalar_breakdowns]
