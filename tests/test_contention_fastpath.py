"""The contention engine against its scalar oracles.

Two contracts, checked against ``tests/reference/contention.py``:

- ``ContentionLedger.allocate`` (the filling loop over only the columns
  that can bind) is *bit-for-bit* equal to the dict-based scalar loop over
  every resource — both run the identical sequence of IEEE additions on
  everything that decides a freeze — across seeded instances spanning the
  demand-capped, resource-capped and mixed freeze regimes, columns loaded
  to within 1e-9..1e-5 of their capacity on both sides of the pruning
  threshold, and dense instances where nothing can be pruned, in rates and
  in water-fill iterations.
- ``MultiJobRuntime`` produces outcomes, peak utilizations and shared
  resources identical to the per-job scalar slice loop, and raises
  :class:`StarvedFlowError` instead of spinning when no byte can ever move
  again.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.multijob import runtime as runtime_module
from repro.multijob.contention import ContentionLedger
from repro.obs.recorder import collecting
from repro.utils.rng import seeded_rng
from reference import contention as reference

#: (name, capacity range, demand range) — the three freeze regimes: flows
#: that stop at their own demand, flows frozen by saturated resources, and
#: instances exercising both in one solve.
_REGIMES = (
    ("demand-capped", (50.0, 200.0), (0.1, 5.0)),
    ("resource-capped", (0.5, 5.0), (10.0, 30.0)),
    ("mixed", (0.5, 50.0), (0.1, 30.0)),
)


def random_flows(rng, num_resources, num_flows, demand_range, touch_all=False):
    """Resource keys and ``(flow_id, demand, weights)`` triples over them."""
    keys = [("res", index) for index in range(num_resources)]
    flows = []
    for flow_index in range(num_flows):
        touched = (
            range(num_resources)
            if touch_all
            else rng.choice(
                num_resources, size=int(rng.integers(1, num_resources + 1)), replace=False
            )
        )
        weights = {keys[k]: float(rng.uniform(0.05, 1.0)) for k in touched}
        flows.append((f"flow{flow_index}", float(rng.uniform(*demand_range)), weights))
    return keys, flows


def build_instance(rng, capacity_range, demand_range) -> ContentionLedger:
    num_resources = int(rng.integers(1, 9))
    num_flows = int(rng.integers(1, 10))
    resources = [
        (("res", index), float(rng.uniform(*capacity_range)))
        for index in range(num_resources)
    ]
    _, flows = random_flows(rng, num_resources, num_flows, demand_range)
    return reference.ledger(resources, flows)


def assert_valid_max_min(ledger: ContentionLedger, rates) -> None:
    """Conservation, demand caps, and max-min (work-conserving) optimality."""
    rows = range(len(ledger.flow_ids))
    rates = np.asarray(rates)
    used = reference.utilization(ledger, rows, rates)
    assert np.all(used <= ledger.capacity * (1.0 + 1e-6))
    assert np.all((rates >= 0.0) & (rates <= ledger.demand * (1.0 + 1e-6)))
    saturated = used >= ledger.capacity * (1.0 - 1e-6)
    for row in rows:
        # Max-min optimality: a flow below its demand must touch a
        # saturated resource — otherwise its rate could rise without
        # lowering anyone's, contradicting max-min fairness.
        if rates[row] < ledger.demand[row] * (1.0 - 1e-6):
            assert (ledger.touches[row] & saturated).any(), (
                f"{ledger.flow_ids[row]} is below demand with headroom everywhere"
            )


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
            fast = ledger.allocate().tolist()
            scalar = reference.allocate(ledger)
            assert fast == scalar, f"{regime}: fast and scalar rates diverged"
            assert_valid_max_min(ledger, fast)
            assert_valid_max_min(ledger, scalar)

    def test_subset_and_reordered_active_sets_stay_bit_equal(self):
        rng = seeded_rng(7)
        ledger = build_instance(rng, (0.5, 20.0), (0.1, 30.0))
        rows = list(range(len(ledger.flow_ids)))
        for active in (rows[::2], list(reversed(rows)), rows[:1]):
            fast = ledger.allocate(active)
            assert reference.allocate(ledger, active) == fast.tolist()

    def test_single_resource_instances_stay_bit_equal(self):
        """One shared resource is the degenerate matrix shape (one column)."""
        rng = seeded_rng(13)
        for _ in range(30):
            flows = [
                (
                    f"flow{index}",
                    float(rng.uniform(0.1, 10.0)),
                    {("pipe",): float(rng.uniform(0.05, 1.0))},
                )
                for index in range(int(rng.integers(1, 8)))
            ]
            ledger = reference.ledger([(("pipe",), float(rng.uniform(0.5, 10.0)))], flows)
            assert reference.allocate(ledger) == ledger.allocate().tolist()

    def test_iteration_count_equals_scalar(self):
        ledger = reference.ledger(
            [(("ost", 0), 4.0), (("ost", 1), 2.0)],
            [
                ("a", 10.0, {("ost", 0): 1.0, ("ost", 1): 0.5}),
                ("b", 10.0, {("ost", 1): 1.0}),
            ],
        )
        with collecting() as rec:
            ledger.allocate([0, 1])
            solved = rec.counter("sim.contention_iterations").value
            assert rec.counter("sim.contention_allocations").value == 1
        _, scalar_iterations = reference.allocate_scalar(
            reference.ScalarLedger(ledger), ["a", "b"]
        )
        assert solved == scalar_iterations


def solve_both(ledger: ContentionLedger, bound: set | None = None):
    """``(rates, iterations)`` of the ledger and of the scalar oracle."""
    with collecting() as rec:
        rates = ledger.allocate().tolist()
        iterations = rec.counter("sim.contention_iterations").value
    scalar, scalar_iterations = reference.allocate_scalar(
        reference.ScalarLedger(ledger), list(ledger.flow_ids), bound
    )
    return (rates, iterations), (list(scalar.values()), scalar_iterations)


def near_threshold_instance(rng) -> tuple[ContentionLedger, dict, dict]:
    """A random ledger with some columns' whole-ledger loads moved to within
    1e-9..1e-5 of their capacities, above or below; also returns each
    key's load and capacity."""
    keys, flows = random_flows(
        rng, int(rng.integers(1, 9)), int(rng.integers(1, 10)), (0.1, 30.0)
    )
    caps = {key: float(rng.uniform(0.5, 50.0)) for key in keys}
    load = dict.fromkeys(keys, 0.0)
    for _, demand, weights in flows:
        for key, weight in weights.items():
            load[key] += demand * weight
    near = [key for key in keys if load[key] > 0.0]
    for key in rng.choice(len(near), size=int(rng.integers(1, len(near) + 1))):
        offset = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -5.0))
        caps[near[key]] = load[near[key]] / (1.0 + offset)
    return reference.ledger(list(caps.items()), flows), load, caps


def candidates(ledger: ContentionLedger) -> np.ndarray:
    """The columns a solve over every flow keeps (the ledger's own test)."""
    return ledger.demand @ ledger.weight > ledger.bind_floor


class TestCandidateColumns:
    def test_near_capacity_columns_on_both_sides_of_the_prune_threshold(self):
        """Columns whose active load sits within 1e-9..1e-5 of capacity,
        above and below: some are pruned, some kept, rates never move."""
        rng = seeded_rng(2025)
        kept = pruned = 0
        for _ in range(300):
            ledger, load, caps = near_threshold_instance(rng)
            near = [key for key in ledger.keys if load[key] > 0.0]
            bound: set = set()
            solved, scalar = solve_both(ledger, bound)
            assert solved == scalar
            keep = candidates(ledger)
            assert {ledger.keys.index(key) for key in bound} <= set(np.flatnonzero(keep))
            for key in near:
                column = ledger.keys.index(key)
                if abs(load[key] / caps[key] - 1.0) <= 1.01e-5:
                    kept += bool(keep[column])
                    pruned += not keep[column]
        assert kept > 50 and pruned > 50

    def test_every_subset_binds_only_bindable_columns(self):
        """No active subset loads a column more than the whole ledger does,
        so every key the oracle binds or saturates for a random active
        subset, in random order, is in the ledger's static set — and the
        solve over that set alone equals the oracle's."""
        rng = seeded_rng(31)
        ledgers = [
            build_instance(rng, capacity_range, demand_range)
            for _, capacity_range, demand_range in _REGIMES
            for _ in range(40)
        ]
        ledgers += [near_threshold_instance(rng)[0] for _ in range(120)]
        # Two flows binding a pipe by tolerance alone (see
        # test_a_prunable_column_never_enters_the_binding_set).
        pipe = ("pipe",)
        demand = 5.0 * (1.0 - 1.5e-9)
        ledgers.append(
            reference.ledger([(pipe, 10.0)], [("a", demand, {pipe: 1.0}), ("b", demand, {pipe: 1.0})])
        )
        bound_any = static_pruned = 0
        for ledger in ledgers:
            static = {ledger.keys[j] for j in np.flatnonzero(ledger.bindable)}
            static_pruned += len(static) < len(ledger.keys)
            every = list(range(len(ledger.flow_ids)))
            subsets = [every] + [
                rng.permutation(every)[: int(rng.integers(1, len(every) + 1))].tolist()
                for _ in range(3)
            ]
            for rows in subsets:
                bound: set = set()
                rates, _ = reference.allocate_scalar(
                    reference.ScalarLedger(ledger),
                    [ledger.flow_ids[row] for row in rows],
                    bound,
                )
                assert bound <= static
                assert ledger.allocate(rows).tolist() == list(rates.values())
                bound_any += bool(bound)
        assert bound_any > 100 and static_pruned > 50

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_dense_instances_where_nothing_can_be_pruned(self, seed):
        """Every flow on every resource, each resource oversubscribed; the
        flows below their fair share freeze at their demands first."""
        rng = seeded_rng(seed)
        iterations = []
        for _ in range(5):
            keys, flows = random_flows(
                rng, int(rng.integers(8, 40)), int(rng.integers(20, 60)), (-2.0, 1.5),
                touch_all=True,
            )
            # Log-uniform demands, 0.01 to ~30.
            flows = [(flow_id, 10.0**exponent, w) for flow_id, exponent, w in flows]
            resources = [(key, float(rng.uniform(0.5, 10.0))) for key in keys]
            ledger = reference.ledger(resources, flows)
            assert candidates(ledger).all()
            solved, scalar = solve_both(ledger)
            assert solved == scalar
            iterations.append(solved[1])
        assert max(iterations) > 2

    def test_a_prunable_column_never_enters_the_binding_set(self):
        """Two equal flows on one pipe of capacity 10.  Their common step
        ``d`` lands within ``_EPS * cap`` of the headroom 5 once ``2d >=
        10 * (1 - 2e-9)``, so the pipe binds by tolerance although it never
        fills: the margin must cover ``_EPS`` times the column's weight sum
        (2), not ``_EPS`` alone."""
        pipe = ("pipe",)

        def run(demand):
            ledger = reference.ledger(
                [(pipe, 10.0)], [("a", demand, {pipe: 1.0}), ("b", demand, {pipe: 1.0})]
            )
            bound: set = set()
            solved, scalar = solve_both(ledger, bound)
            assert solved == scalar == ([demand, demand], 1)
            return bool(candidates(ledger)[0]), bound

        # Load 10 * (1 - 3.5e-9): prunable, and the oracle never binds it.
        assert run(5.0 * (1.0 - 3.5e-9)) == (False, set())
        # Load 10 * (1 - 1.5e-9): within _EPS * (1 + W) of capacity, so
        # kept — and the oracle does bind it by tolerance.
        assert run(5.0 * (1.0 - 1.5e-9)) == (True, {pipe})


def mix_scenario(
    rng: random.Random, index: int, num_nodes: int = 256, num_jobs: int | None = None
) -> dict:
    """A contention_mix-shaped scenario on a ``num_nodes``-node Theta.

    ``num_jobs`` (default: 8–24) jobs of 2–8 nodes arriving over 3 s,
    reading or writing, each through a narrow Lustre stripe anchored
    anywhere or (about 15%) one of two shared burst buffers whose drain
    capacities disagree between jobs; the allocation policy cycles through
    all three.
    """
    from repro.scenario.spec import ALLOCATION_POLICIES

    jobs = []
    for job in range(rng.randint(8, 24) if num_jobs is None else num_jobs):
        if rng.random() < 0.15:
            storage = {
                "kind": "burst-buffer",
                "name": f"bb{rng.randint(0, 1)}",
                "drain_gbps": rng.choice((1.0, 2.0, 4.0)),
            }
        else:
            storage = {
                "kind": "lustre",
                "stripe_count": rng.choice((2, 4, 8)),
                "ost_start": rng.randrange(56),
            }
        jobs.append(
            {
                "name": f"J{job}",
                "num_nodes": rng.randint(2, 8),
                "workload": {
                    "kind": "ior",
                    "access": rng.choice(("write", "read")),
                    "bytes_per_rank": rng.choice((1, 2, 4, 8)) * 1_000_000,
                },
                "io": {
                    "kind": "tapioca",
                    "num_aggregators": rng.choice((1, 2, 4, 8)),
                    "buffer_size": rng.choice((4, 8, 16)) * 1_048_576,
                },
                "storage": storage,
                "arrival_s": round(rng.uniform(0.0, 3.0), 3),
            }
        )
    return {
        "id": f"mix/{index}",
        "machine": {"kind": "theta", "num_nodes": num_nodes},
        "workload": {"kind": "ior"},
        "io": {"kind": "tapioca"},
        "multijob": {
            "jobs": jobs,
            "allocation_policy": ALLOCATION_POLICIES[index % len(ALLOCATION_POLICIES)],
        },
    }


class TestRuntimeEquivalence:
    @pytest.fixture(autouse=True)
    def half_second_slices(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "_SLICE_S", 0.5)

    def build_runtime(self, mb_per_rank: int = 64, jobs: int = 4, arrival_step: float = 3.0):
        from repro.core.config import TapiocaConfig
        from repro.machine.theta import ThetaMachine
        from repro.multijob import JobSpec, MultiJobRuntime
        from repro.storage.lustre import LustreStripeConfig
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
                stripe=LustreStripeConfig(8, 8 * MIB, ost_start=2 * index),
                arrival_s=arrival_step * index,
            )
            for index in range(jobs)
        ]
        return MultiJobRuntime(machine, specs)

    def test_fast_and_scalar_runs_are_bit_identical(self):
        fast = self.build_runtime().run()
        scalar = reference.run_scalar(self.build_runtime())
        assert fast.peak_utilization == scalar.peak_utilization
        for fast_outcome, scalar_outcome in zip(fast.outcomes, scalar.outcomes):
            assert fast_outcome == scalar_outcome

    def test_seeded_mixed_scenarios_match_the_scalar_loop(self):
        """Seeded contention_mix-shaped scenarios, every allocation policy."""
        from repro.scenario.simulation import Simulation
        from repro.scenario.spec import Scenario

        rng = random.Random(22)
        for index in range(6):
            simulation = Simulation(Scenario.from_dict(mix_scenario(rng, index)))
            fast = simulation.multijob_runtime().run()
            scalar = reference.run_scalar(simulation.multijob_runtime())
            assert fast.outcomes == scalar.outcomes
            assert fast.peak_utilization == scalar.peak_utilization
            assert fast.shared_resources == scalar.shared_resources

    def test_multi_gigabyte_jobs_complete_on_both_paths(self):
        """Regression: totals whose float ulp exceeds the absolute byte
        tolerance used to strand jobs in a zero-width-slice loop."""
        for run in (lambda runtime: runtime.run(), reference.run_scalar):
            report = run(self.build_runtime(mb_per_rank=2048, jobs=2))
            assert all(outcome.finish_s > 0.0 for outcome in report.outcomes)
            assert report.conserves_bandwidth()


class TestRuntimeAtWorkloadShape:
    """The runtime at the default slice length, against the scalar loop."""

    def test_a_sub_epsilon_arrival_runs_and_ends_the_slice(self):
        """A job ready within ``_BYTES_EPS`` of now is admitted at once and
        the slice still ends at its ``ready_s``: two jobs on shared OSTs,
        the second arriving 3e-7 s after the first.  Admitting it without
        that bound moves ``finish_s`` by one ulp."""
        build = TestRuntimeEquivalence().build_runtime
        fast = build(jobs=2, arrival_step=3e-7).run()
        scalar = reference.run_scalar(build(jobs=2, arrival_step=3e-7))
        assert fast.outcome_of("job1").start_s == 3e-7
        assert fast.outcomes == scalar.outcomes
        assert fast.peak_utilization == scalar.peak_utilization

    def test_contention_mix_shaped_scenarios_match_the_scalar_loop(self):
        """32–64 jobs on a 1024-node Theta, one scenario per allocation
        policy: unrounded outcomes, peaks and shared resources are the
        scalar loop's (a digest of rounded slowdowns would miss a last-bit
        drift)."""
        from repro.scenario.simulation import Simulation
        from repro.scenario.spec import Scenario

        rng = random.Random(30)
        for index, num_jobs in enumerate((32, 48, 64)):
            payload = mix_scenario(rng, index, num_nodes=1024, num_jobs=num_jobs)
            simulation = Simulation(Scenario.from_dict(payload))
            fast = simulation.multijob_runtime().run()
            scalar = reference.run_scalar(simulation.multijob_runtime())
            assert fast.outcomes == scalar.outcomes
            assert fast.peak_utilization == scalar.peak_utilization
            assert fast.shared_resources == scalar.shared_resources
            assert len(fast.peak_utilization) > 2 * num_jobs

    def test_a_second_run_repeats_the_first(self):
        """The jobs hold no run state; shared resources are computed on
        first read and are part of report equality."""
        runtime = TestRuntimeEquivalence().build_runtime()
        first = runtime.run()
        assert "shared_resources" not in vars(first)
        second = runtime.run()
        assert first == second
        assert first.shared_resources == second.shared_resources
        assert first.shared_resources[("job0", "job1")]


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
            return np.zeros_like(rates)

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
            calls.append(len(rates))
            if len(rates) < 2:
                return np.zeros_like(rates)
            return rates

        monkeypatch.setattr(runtime.ledger, "allocate", starve_until_both_arrive)
        try:
            report = runtime.run()
        except StarvedFlowError:  # pragma: no cover - would be a regression
            pytest.fail("a pending arrival must rescue a zero-rate slice")
        # The solo job was starved, so nothing finished before job1 arrived.
        assert min(o.start_s for o in report.outcomes) >= 0.0
        assert 2 in calls

