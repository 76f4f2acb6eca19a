"""Tests for the multi-job subsystem: allocator, job binding, fluid runtime."""

import random

import pytest

from repro.core.config import TapiocaConfig
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.multijob import JobSpec, MultiJobRuntime, NodeAllocator
from repro.multijob.job import bind_jobs
from repro.storage.burst_buffer import BurstBufferModel
from repro.utils.units import MB, MIB, gbps
from repro.workloads.ior import IORWorkload
from reference.allocator import topology_order as reference_topology_order


def theta_spec(
    machine,
    name,
    num_nodes,
    *,
    ost_start=0,
    stripe_count=2,
    mb_per_rank=4,
    ranks_per_node=16,
    aggregators=None,
    **spec_kwargs,
):
    """An I/O-bound TAPIOCA job writing through a narrow OST set."""
    ranks = num_nodes * ranks_per_node
    spec_kwargs.setdefault(
        "stripe",
        machine.stripe_for_job(
            ost_start=ost_start, stripe_count=stripe_count, stripe_size=8 * MIB
        ),
    )
    return JobSpec(
        name=name,
        num_nodes=num_nodes,
        workload=IORWorkload(ranks, mb_per_rank * MB),
        ranks_per_node=ranks_per_node,
        config=TapiocaConfig(
            num_aggregators=min(32, ranks) if aggregators is None else aggregators,
            buffer_size=8 * MIB,
        ),
        **spec_kwargs,
    )


class TestNodeAllocator:
    def test_contiguous_packs_lowest_ids(self):
        machine = ThetaMachine(16)
        allocator = NodeAllocator(machine, "contiguous")
        first = allocator.allocate("a", 6)
        second = allocator.allocate("b", 6)
        assert first.nodes == tuple(range(6))
        assert second.nodes == tuple(range(6, 12))

    def test_scattered_produces_non_contiguous_allocations(self):
        machine = ThetaMachine(32)
        allocator = NodeAllocator(machine, "scattered")
        allocation = allocator.allocate("a", 8)
        gaps = [b - a for a, b in zip(allocation.nodes, allocation.nodes[1:])]
        assert any(gap > 1 for gap in gaps), allocation.nodes
        # The second job's nodes interleave with the first job's.
        other = allocator.allocate("b", 8)
        assert min(other.nodes) < max(allocation.nodes)

    def test_topology_aware_fills_whole_routers(self):
        machine = ThetaMachine(32)
        topology = machine.topology
        allocator = NodeAllocator(machine, "topology-aware")
        allocation = allocator.allocate("a", 8)
        routers = {topology.router_of(node) for node in allocation.nodes}
        # 8 nodes at 4 nodes/router need exactly 2 routers when router-aligned.
        assert len(routers) == 2

    @pytest.mark.parametrize(
        "machine",
        [
            ThetaMachine(256),
            MiraMachine(512, pset_size=128),
            MiraMachine(96, pset_size=16),
            generic_cluster(128),
        ],
        ids=["theta", "mira-128", "mira-16", "fat-tree"],
    )
    def test_topology_order_matches_the_scalar_grouping(self, machine):
        """Fragmented free pools: scattered grants punch holes first.  Each
        topology-aware grant, one at a time or in one walk of several, is
        the head of the scalar grouping of the pool the grants before it
        left."""

        def fragmented():
            rng = random.Random(machine.num_nodes)
            allocator = NodeAllocator(machine, "scattered")
            for index in range(6):
                allocator.allocate(f"hole{index}", rng.randint(1, machine.num_nodes // 12))
            allocator.policy = "topology-aware"
            return allocator, rng

        allocator, rng = fragmented()
        names, sizes, expected = [], [], []
        for index in range(4):
            free = allocator._free.tolist()
            order = reference_topology_order(machine, free)
            size = rng.randint(1, len(free) // 4)
            assert allocator.allocate(f"job{index}", size).nodes == tuple(order[:size])
            names.append(f"job{index}")
            sizes.append(size)
            expected.append(order[:size])
        walk, _ = fragmented()
        assert [nodes.tolist() for nodes in walk.allocate_all(names, sizes)] == expected
        assert walk._free.tolist() == allocator._free.tolist()

    def test_rejects_duplicate_and_oversized_requests(self):
        machine = ThetaMachine(16)
        allocator = NodeAllocator(machine, "contiguous")
        allocator.allocate("a", 4)
        with pytest.raises(ValueError):
            allocator.allocate("a", 4)
        with pytest.raises(ValueError):
            allocator.allocate("b", machine.num_nodes)
        with pytest.raises(ValueError):
            NodeAllocator(machine, "bogus")


class TestJobBinding:
    def test_spec_validates_rank_count(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="bad",
                num_nodes=4,
                workload=IORWorkload(8, 1 * MB),
                ranks_per_node=16,
            )

    def test_bind_job_builds_weights_and_estimate(self):
        machine = ThetaMachine(16)
        # Sparse aggregators: partitions span several nodes, so aggregation
        # traffic really crosses the interconnect.
        spec = theta_spec(machine, "a", 8, aggregators=2)
        [job] = bind_jobs(machine, [spec], [list(range(8))])
        assert job.isolated.bandwidth > 0
        ost_keys = [key for key in job.storage_weights if key[0] == "lustre-ost"]
        assert len(ost_keys) == 2
        assert sum(job.storage_weights[key] for key in ost_keys) == pytest.approx(1.0)
        assert job.storage_weights[("lustre-lnet",)] == 1.0
        assert job.network_weights, "aggregation traffic should load links"
        assert set(job.network_capacities) == set(job.network_weights)

    def test_bind_job_with_node_local_aggregation_loads_no_links(self):
        machine = ThetaMachine(16)
        # One aggregator per node's worth of ranks: every partition is
        # node-local, so no aggregation byte touches the network.
        spec = theta_spec(machine, "a", 8, aggregators=8)
        [job] = bind_jobs(machine, [spec], [list(range(8))])
        assert job.network_weights == {}

    def test_bind_job_on_mira_loads_its_psets_only(self):
        machine = MiraMachine(32, pset_size=16)
        spec = JobSpec(
            name="m",
            num_nodes=16,
            workload=IORWorkload(16 * 4, 1 * MB),
            ranks_per_node=4,
            config=TapiocaConfig(num_aggregators=8, buffer_size=4 * MIB),
        )
        [job] = bind_jobs(machine, [spec], [list(range(16))])
        ion_keys = [key for key in job.storage_weights if key[0] == "gpfs-ion"]
        assert ion_keys == [("gpfs-ion", 0)]
        assert ("gpfs-backend",) in job.storage_weights


class TestMultiJobRuntime:
    def test_shared_osts_slow_down_disjoint_do_not(self):
        """The acceptance scenario: slowdown > 1 on shared OSTs, ~1 disjoint."""
        machine = ThetaMachine(16)
        shared = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, ost_start=0),
                theta_spec(machine, "B", 8, ost_start=0),
            ],
        ).run()
        disjoint = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, ost_start=0),
                theta_spec(machine, "B", 8, ost_start=2),
            ],
        ).run()
        assert shared.outcome_of("A").slowdown > 1.05
        assert shared.outcome_of("B").slowdown > 1.05
        assert disjoint.max_slowdown() <= 1.01
        assert shared.conserves_bandwidth()
        assert disjoint.conserves_bandwidth()

    def test_symmetric_jobs_get_symmetric_slowdowns(self):
        machine = ThetaMachine(16)
        report = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, ost_start=0),
                theta_spec(machine, "B", 8, ost_start=0),
            ],
        ).run()
        a, b = report.outcome_of("A"), report.outcome_of("B")
        assert a.slowdown == pytest.approx(b.slowdown, rel=1e-6)

    def test_staggered_arrival_reduces_overlap(self):
        machine = ThetaMachine(16)

        def specs(delay):
            return [
                theta_spec(machine, "A", 8, ost_start=0),
                theta_spec(machine, "B", 8, ost_start=0, arrival_s=delay),
            ]

        overlapped = MultiJobRuntime(machine, specs(0.0)).run()
        solo_time = overlapped.outcome_of("A").isolated_io_s
        # Arrive after job A is completely done: nobody interferes.
        staggered = MultiJobRuntime(machine, specs(10.0 * solo_time)).run()
        assert staggered.max_slowdown() <= 1.01
        assert overlapped.max_slowdown() > staggered.max_slowdown()

    def test_compute_phase_delays_io_start(self):
        machine = ThetaMachine(16)
        report = MultiJobRuntime(
            machine, [theta_spec(machine, "A", 8, compute_s=5.0)]
        ).run()
        outcome = report.outcome_of("A")
        assert outcome.start_s == pytest.approx(5.0)
        assert outcome.slowdown == pytest.approx(1.0)

    def test_shared_burst_buffer_drain_contends(self):
        machine = ThetaMachine(16)
        tier = BurstBufferModel(name="bb", num_devices=16, drain_bandwidth=gbps(2.0))
        shared = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, filesystem=tier, stripe=None),
                theta_spec(machine, "B", 8, filesystem=tier, stripe=None),
            ],
        ).run()
        assert shared.outcome_of("A").slowdown > 1.05
        assert shared.conserves_bandwidth()

    def test_report_lists_the_resources_each_pair_shares(self):
        """Every job pair that touches a common ledger column, with the
        keys both touch in ``repr`` order; pairs sharing nothing are
        absent."""
        machine = ThetaMachine(32)
        runtime = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, ost_start=0, aggregators=2),
                theta_spec(machine, "B", 8, ost_start=1, aggregators=2),
                theta_spec(machine, "C", 8, ost_start=4, aggregators=2),
                theta_spec(machine, "D", 8, ost_start=8, aggregators=2),
            ],
            allocation_policy="scattered",
        )
        ledger = runtime.ledger
        expected = {}
        for a in range(len(ledger.flow_ids)):
            for b in range(a + 1, len(ledger.flow_ids)):
                both = [
                    key
                    for key, ta, tb in zip(ledger.keys, ledger.touches[a], ledger.touches[b])
                    if ta and tb
                ]
                if both:
                    expected[(ledger.flow_ids[a], ledger.flow_ids[b])] = sorted(
                        both, key=repr
                    )
        shared = runtime.run().shared_resources
        assert shared == expected
        assert list(shared) == list(expected)
        assert ("lustre-ost", 1) in shared[("A", "B")]
        assert ("lustre-ost", 1) not in shared[("A", "C")]
        assert any(key[0] == "link" for keys in shared.values() for key in keys)

    def test_run_twice_reports_the_same(self):
        """Regression: a second run used to resume from the first run's
        finished jobs and report zero shared I/O time for every job."""
        machine = ThetaMachine(16)
        runtime = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, ost_start=0),
                theta_spec(machine, "B", 8, ost_start=0, arrival_s=0.01),
            ],
        )
        first = runtime.run()
        second = runtime.run()
        assert first.max_slowdown() > 1.05
        assert second == first

    def test_rejects_duplicate_names_and_empty_runs(self):
        machine = ThetaMachine(16)
        with pytest.raises(ValueError):
            MultiJobRuntime(
                machine,
                [
                    theta_spec(machine, "A", 4),
                    theta_spec(machine, "A", 4),
                ],
            )
        with pytest.raises(ValueError):
            MultiJobRuntime(machine, [])

    def test_ledger_columns_follow_registration_order(self):
        """Storage first, then each job's links in first-traversal order and
        the resources its file-system override adds: the binding scan's
        first-hit tie-breaking depends on this column order."""
        machine = ThetaMachine(32)
        tier = BurstBufferModel(name="bb", num_devices=16, drain_bandwidth=gbps(2.0))
        runtime = MultiJobRuntime(
            machine,
            [
                theta_spec(machine, "A", 8, aggregators=2),
                theta_spec(machine, "B", 8, aggregators=2, filesystem=tier, stripe=None),
                theta_spec(machine, "C", 8, aggregators=2),
            ],
            allocation_policy="scattered",
        )
        expected = [resource.key for resource in machine.storage_resources("write")]
        for job in runtime.jobs:
            expected += list(job.network_capacities) + [
                key for key in job.storage_weights if key[0] == "bb-drain"
            ]
        assert ("bb-drain", "bb") in expected
        assert runtime.ledger.keys == tuple(dict.fromkeys(expected))
        assert runtime.ledger.flow_ids == ("A", "B", "C")

    def test_cross_job_link_sharing_by_policy(self):
        machine = ThetaMachine(16)

        def sharing(policy):
            runtime = MultiJobRuntime(
                machine,
                [
                    theta_spec(machine, "A", 8, ost_start=0, aggregators=2),
                    theta_spec(machine, "B", 8, ost_start=2, aggregators=2),
                ],
                allocation_policy=policy,
            )
            return runtime.cross_job_link_sharing()[("A", "B")]

        assert sharing("contiguous") == 0
        assert sharing("scattered") > 0
