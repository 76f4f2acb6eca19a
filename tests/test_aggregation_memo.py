"""The memoised aggregation of the analytic models is exact and bounded.

:func:`repro.perfmodel.batch.estimate_plans` keeps each single-job plan's
:class:`~repro.perfmodel.batch.Aggregation` (election, sender groups, flow
analysis) on the machine's topology, keyed by the plan's aggregation
inputs.  A memo hit must give the estimate a fresh pass gives, share no
mutable state with other estimates, stay out of multi-job binding, and
keep the memo under its bound.
"""

import numpy as np
import pytest

from repro.autotune import Categorical, SearchSpace, get_objective, tune
from repro.core.config import TapiocaConfig
from repro.experiments.harness import _run_registered, list_experiments
from repro.iolib.hints import MPIIOHints
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.multijob import JobSpec, bind_jobs
from repro.obs.recorder import collecting
from repro.perfmodel import batch
from repro.perfmodel.mpiio import model_mpiio
from repro.perfmodel.tapioca import TapiocaPlan, model_tapioca
from repro.scenario.spec import IOStrategySpec, MachineSpec, Scenario, WorkloadSpec
from repro.topology.mapping import block_mapping
from repro.utils.units import MB, MIB
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload

def memo_of(machine) -> dict:
    """The running evaluation's memo entries of ``machine``."""
    return {key: found for key, found in batch._MEMO.get().items() if key[0] is machine}


def cold(aggregate):
    """``aggregate`` starting every ``estimate_plans`` call from an empty memo."""

    def aggregate_cold(machine, plans, loads):
        memo = batch._MEMO.get()
        if memo is not None:
            memo.clear()
        return aggregate(machine, plans, loads)

    return aggregate_cold


@pytest.fixture
def evaluation():
    """Run the test as one evaluation: its estimates share one memo."""
    with batch.memoised_aggregations():
        yield


@pytest.fixture
def memo_dropped_before_every_estimate(monkeypatch):
    monkeypatch.setattr(batch, "_aggregate", cold(batch._aggregate))


@pytest.fixture(scope="module")
def shared_memo_results():
    """Every experiment at scale 8, run twice in one evaluation: the first
    run fills the memo (shared across experiments), the second reads it warm."""
    ids = list_experiments()
    with batch.memoised_aggregations():
        first = {name: _run_registered(name, 8.0).to_dict() for name in ids}
        warm = {name: _run_registered(name, 8.0).to_dict() for name in ids}
    return first, warm


class TestExactness:
    def test_a_warm_memo_gives_every_experiment_unchanged(self, shared_memo_results):
        first, warm = shared_memo_results
        assert len(first) == 22
        for name in first:
            assert warm[name] == first[name], name

    def test_a_memo_dropped_before_every_estimate_gives_the_same_results(
        self, shared_memo_results, memo_dropped_before_every_estimate
    ):
        first, _ = shared_memo_results
        for name in first:
            assert _run_registered(name, 8.0).to_dict() == first[name], name

    def test_the_memo_ends_with_its_evaluation(self):
        """An evaluation does the same work however many ran before it, and
        estimates made outside one are not memoised."""
        counts = []
        for _ in range(2):
            with collecting() as rec:
                _run_registered("fig08", 8.0)
            counts.append(
                [rec.counter("model.aggregations", memo=memo).value for memo in ("hit", "miss")]
            )
            assert batch._MEMO.get() is None
        assert counts[0] == counts[1] and min(counts[0]) > 0
        machine, workload = ThetaMachine(32), IORWorkload(32 * 16, 1 * MB)
        with collecting() as rec:
            for buffer_size in (1, 2):
                model_tapioca(machine, workload, TapiocaConfig(buffer_size=buffer_size * MIB))
        assert rec.counter("model.aggregations", memo="hit").value == 0
        assert rec.counter("model.aggregations", memo="miss").value == 0

    def test_a_nested_evaluation_shares_the_outer_memo(self, evaluation):
        machine, workload = ThetaMachine(32), IORWorkload(32 * 16, 1 * MB)
        model_tapioca(machine, workload)
        with batch.memoised_aggregations(), collecting() as rec:
            model_tapioca(machine, workload, TapiocaConfig(buffer_size=2 * MIB))
        assert rec.counter("model.aggregations", memo="hit").value == 1
        assert len(memo_of(machine)) == 1

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_a_hit_equals_a_fresh_pass_over_the_tunables(self, evaluation, layout):
        """Buffer size, lock sharing and access are outside the key; the
        volume is in it (HACC-IO's particle count)."""
        machine = MiraMachine(256, pset_size=128)
        estimates = {}
        for particles in (5_000, 25_000):
            for buffer_size in (4 * MIB, 16 * MIB):
                for shared_locks in (False, True):
                    workload = HACCIOWorkload(256 * 16, particles, layout=layout)
                    config = TapiocaConfig(buffer_size=buffer_size, shared_locks=shared_locks)
                    estimates[particles, buffer_size, shared_locks] = (
                        model_tapioca(machine, workload, config),
                        model_tapioca(MiraMachine(256, pset_size=128), workload, config),
                    )
        assert len(memo_of(machine)) == 2
        for warm, fresh in estimates.values():
            assert warm == fresh


class TestSharing:
    def test_tapioca_estimates_of_one_entry_share_no_mutable_state(self, evaluation):
        machine = ThetaMachine(64)
        workload = IORWorkload(64 * 16, 1 * MB)
        first = model_tapioca(machine, workload, TapiocaConfig(buffer_size=4 * MIB))
        second = model_tapioca(machine, workload, TapiocaConfig(buffer_size=8 * MIB))
        assert len(memo_of(machine)) == 1
        self._assert_unshared(first, second)

    def test_mpiio_estimates_of_one_entry_share_no_mutable_state(self, evaluation):
        machine = MiraMachine(128, pset_size=64)
        workload = IORWorkload(128 * 16, 1 * MB)
        first = model_mpiio(machine, workload, MPIIOHints(cb_buffer_size=4 * MIB))
        second = model_mpiio(machine, workload, MPIIOHints(cb_buffer_size=16 * MIB))
        assert len(memo_of(machine)) == 1
        self._assert_unshared(first, second)

    @staticmethod
    def _assert_unshared(first, second):
        nodes = list(second.details["aggregator_nodes"])
        senders = dict(second.details["senders_by_aggregator"])
        assert first.details["aggregator_nodes"] == nodes
        first.details["aggregator_nodes"].append(-1)
        aggregator = next(iter(first.details["senders_by_aggregator"]))
        del first.details["senders_by_aggregator"][aggregator]
        first.details["senders_by_aggregator"][-1] = (0,)
        assert second.details["aggregator_nodes"] == nodes
        assert second.details["senders_by_aggregator"] == senders
        # Each aggregator's senders are a tuple: nothing to mutate in place.
        assert all(isinstance(group, tuple) for group in senders.values())

    def test_the_memoised_record_is_read_only(self, evaluation):
        machine = ThetaMachine(32)
        model_tapioca(machine, IORWorkload(32 * 16, 1 * MB))
        (aggregation,) = memo_of(machine).values()
        for array in (aggregation.totals, aggregation.groups):
            assert isinstance(array, np.ndarray) and not array.flags.writeable
        assert isinstance(aggregation.senders, tuple)
        assert isinstance(aggregation.aggregator_nodes, tuple)

    def test_a_hit_builds_no_partitions(self, evaluation):
        machine = ThetaMachine(32)
        workload = IORWorkload(32 * 16, 1 * MB)
        batch.estimate_plans(machine, [TapiocaPlan(machine, workload)])
        plan = TapiocaPlan(machine, workload, TapiocaConfig(buffer_size=2 * MIB))
        batch.estimate_plans(machine, [plan])
        assert "partitions" not in vars(plan)


class TestKey:
    def test_unkeyable_plans_are_not_memoised(self, evaluation):
        """An explicit mapping, or a workload whose ranks move different
        amounts, has no key."""
        machine = ThetaMachine(16)
        mapping = block_mapping(16 * 16, 16, 16)
        model_tapioca(machine, IORWorkload(16 * 16, 1 * MB), mapping=mapping)
        model_tapioca(machine, SyntheticWorkload(64, seed=3), TapiocaConfig(num_aggregators=4))
        assert memo_of(machine) == {}

    def test_bind_jobs_leaves_the_memo_empty(self, evaluation):
        machine = ThetaMachine(64)
        specs = [
            JobSpec(
                name="tapioca",
                num_nodes=16,
                workload=IORWorkload(16 * 2, 1 * MB),
                ranks_per_node=2,
                config=TapiocaConfig(num_aggregators=4),
            ),
            JobSpec(
                name="mpiio",
                num_nodes=16,
                workload=IORWorkload(16 * 2, 1 * MB),
                ranks_per_node=2,
                method="mpiio",
                hints=MPIIOHints(cb_nodes=2),
            ),
        ]
        bind_jobs(machine, specs, [range(16), range(16, 32)])
        assert memo_of(machine) == {}

    def test_hits_and_misses_are_counted_when_tracing(self, evaluation):
        machine = ThetaMachine(32)
        workload = IORWorkload(32 * 16, 1 * MB)
        with collecting() as rec:
            for buffer_size in (1, 2, 4):
                model_tapioca(machine, workload, TapiocaConfig(buffer_size=buffer_size * MIB))
            model_tapioca(machine, workload, TapiocaConfig(num_aggregators=8))
        assert rec.counter("model.aggregations", memo="miss").value == 2
        assert rec.counter("model.aggregations", memo="hit").value == 2


class TestBound:
    def test_the_memo_stays_under_its_bound_across_a_tuning_run(self, monkeypatch):
        """A whole-space tuning run with more distinct aggregations than a
        (lowered) bound: the memo never holds more, and every value equals
        a fresh pass."""
        monkeypatch.setattr(batch, "MAX_AGGREGATIONS", 5)
        sizes = []
        aggregate = batch._aggregate

        def watched(machine, plans, loads):
            found = aggregate(machine, plans, loads)
            sizes.append(len(batch._MEMO.get()))
            return found

        monkeypatch.setattr(batch, "_aggregate", watched)
        base = Scenario(
            id="memo-bound",
            machine=MachineSpec(kind="theta", num_nodes=32),
            workload=WorkloadSpec(kind="ior", bytes_per_rank=2 * MB),
            io=IOStrategySpec(kind="tapioca", num_aggregators=4, buffer_size=4 * MIB),
        )
        space = SearchSpace(
            Categorical("io.num_aggregators", (2, 4, 8, 16)),
            Categorical("workload.bytes_per_rank", (1 * MB, 2 * MB, 4 * MB)),
            Categorical("io.buffer_size", (1 * MIB, 4 * MIB, 16 * MIB)),
        )
        trace = tune(base, space)
        assert len(sizes) == 36 and max(sizes) == 5
        monkeypatch.setattr(batch, "_aggregate", cold(aggregate))
        objective = get_objective("bandwidth")
        for point, traced in zip(space.grid(), trace.points):
            assert objective.compute(space.apply(base, point)) == traced.value
