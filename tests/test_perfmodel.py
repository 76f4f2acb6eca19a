"""Tests for the flow analysis and the analytic MPI I/O / TAPIOCA models."""

import random

import pytest

from repro.core.config import TapiocaConfig
from repro.core.partitioning import build_partitions
from repro.iolib.hints import MPIIOHints
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.perfmodel.aggregation import collective_time, fill_times
from repro.perfmodel.common import build_context, is_aligned
from repro.perfmodel.flows import analyze_flows
from repro.perfmodel.mpiio import model_mpiio
from repro.perfmodel.results import IOEstimate, PhaseBreakdown
from repro.perfmodel.tapioca import model_tapioca
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreStripeConfig
from repro.utils.units import MB, MIB
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from reference import flows as reference_flows
from reference import routes as reference_routes
from reference.aggregation import round_fill_time as reference_fill_time


class TestPhaseBreakdown:
    def test_total_and_addition(self):
        a = PhaseBreakdown(aggregation=1.0, io=2.0, overhead=0.5)
        b = PhaseBreakdown(aggregation=0.5, io=1.0, overhead=0.25, overlapped=0.1)
        combined = a + b
        assert combined.total == pytest.approx(5.25)
        assert combined.overlapped == pytest.approx(0.1)

    def test_estimate_bandwidth(self):
        estimate = IOEstimate(
            method="x",
            machine="m",
            workload="w",
            access="write",
            total_bytes=1e9,
            phases=PhaseBreakdown(io=2.0),
        )
        assert estimate.bandwidth == pytest.approx(5e8)
        assert estimate.bandwidth_gbps() == pytest.approx(0.5)
        assert "x" in estimate.summary()


def _items(analysis):
    """The three per-aggregator dictionaries as ordered item lists."""
    return [
        list(analysis.aggregator_contention.items()),
        list(analysis.aggregator_distance.items()),
        list(analysis.aggregator_min_bandwidth.items()),
    ]


_FLOW_MACHINES = [
    ThetaMachine(64),
    MiraMachine(512, pset_size=128),
    generic_cluster(48, nodes_per_leaf=8),
]


class TestFlows:
    def test_spread_aggregators_have_less_contention_than_packed(self):
        topo = MiraMachine(64, pset_size=64).topology
        senders = list(range(64))
        packed = {0: senders, 1: senders, 2: senders, 3: senders}
        spread_nodes = [0, 16, 32, 48]
        spread = {node: senders for node in spread_nodes}
        packed_analysis = analyze_flows(topo, packed)
        spread_analysis = analyze_flows(topo, spread)
        assert spread_analysis.mean_contention() <= packed_analysis.mean_contention()

    def test_self_flows_ignored(self):
        topo = ThetaMachine(8).topology
        analysis = analyze_flows(topo, {0: [0]})
        assert analysis.aggregator_distance[0] == 0.0
        assert analysis.aggregator_contention[0] == 1.0

    def test_sender_sampling_cap(self):
        """Above the cap the analysis routes exactly the oracle's 8-sender
        sample: the distance is the mean hop count over those 8 routes."""
        topo = ThetaMachine(64).topology
        senders = list(range(64))
        analysis = analyze_flows(topo, {0: senders}, max_senders_per_aggregator=8)
        sample = reference_flows.sampled_senders(senders, 0, 8)
        assert sample == [1, 8, 16, 24, 32, 40, 48, 56]
        hops = [len(reference_routes.route(topo, s, 0)) for s in sample]
        assert analysis.aggregator_distance[0] == sum(hops) / 8
        uncapped = analyze_flows(topo, {0: senders})
        assert uncapped.aggregator_distance != analysis.aggregator_distance
        assert _items(analysis) == _items(
            reference_flows.analyze_flows(topo, {0: senders}, max_senders_per_aggregator=8)
        )

    @pytest.mark.parametrize("machine", _FLOW_MACHINES, ids=lambda m: m.topology.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_analysis_equals_route_walk_oracle(self, machine, seed):
        """Seeded patterns: self-only aggregators, senders above the
        128-sender cap, senders shared between aggregators, duplicates."""
        topology = machine.topology
        rng = random.Random(seed)
        n = topology.num_nodes
        aggregators = rng.sample(range(n), rng.randint(1, min(n, 12)))
        pattern = {}
        for index, aggregator in enumerate(aggregators):
            if index % 5 == 1:
                pattern[aggregator] = [aggregator]  # only itself
            elif index % 5 == 2:
                pattern[aggregator] = []
            else:
                size = rng.choice([1, 7, 130, 300, n])
                senders = sorted(rng.sample(range(n), min(size, n)))
                pattern[aggregator] = senders + senders[:3]
        expected = reference_flows.analyze_flows(topology, pattern)
        analysis = analyze_flows(topology, pattern)
        assert _items(analysis) == _items(expected)
        # A cache hit returns the same object.
        assert analyze_flows(topology, pattern) is analysis
        for cap in (1, 5):
            assert _items(
                analyze_flows(topology, pattern, max_senders_per_aggregator=cap)
            ) == _items(
                reference_flows.analyze_flows(
                    topology, pattern, max_senders_per_aggregator=cap
                )
            )

    def test_aggregators_sharing_every_sender(self):
        topo = MiraMachine(128, pset_size=128).topology
        pattern = {node: list(range(128)) for node in (0, 5, 64, 127)}
        analysis = analyze_flows(topo, pattern)
        assert _items(analysis) == _items(reference_flows.analyze_flows(topo, pattern))
        assert analysis.max_contention() > 1.0

    @pytest.mark.parametrize("machine", _FLOW_MACHINES, ids=lambda m: m.topology.name)
    def test_invalid_nodes_raise_instead_of_wrapping(self, machine):
        topology = machine.topology
        n = topology.num_nodes
        for pattern in ({0: [1, -1]}, {0: [n]}, {-1: [0]}, {n: [0]}):
            with pytest.raises(ValueError):
                analyze_flows(topology, pattern)
        with pytest.raises(ValueError):
            analyze_flows(topology, {0: [1]}, max_senders_per_aggregator=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze_flows(ThetaMachine(8).topology, {})


class TestAggregationPhaseModel:
    """:func:`fill_times` of aggregators looked up in one flow analysis, the
    way ``estimate_plans`` looks them up (an aggregator the analysis never
    saw: contention 1, distance 1, the default link bandwidth)."""

    @staticmethod
    def _fills(machine, analysis, nodes, senders, round_bytes):
        default_bw = machine.topology.link_bandwidth("default")
        return fill_times(
            machine,
            [analysis.aggregator_contention.get(n, 1.0) for n in nodes],
            [analysis.aggregator_min_bandwidth.get(n, default_bw) for n in nodes],
            [analysis.aggregator_distance.get(n, 1.0) for n in nodes],
            senders,
            round_bytes,
            16,
        )

    def _model(self, machine):
        analysis = analyze_flows(machine.topology, {0: list(range(machine.num_nodes))})
        return lambda nodes, senders, round_bytes: self._fills(
            machine, analysis, nodes, senders, round_bytes
        )

    def test_fill_time_scales_with_bytes(self):
        fills = self._model(ThetaMachine(16))
        small, large = fills([0, 0], [16, 16], [1 * MIB, 64 * MIB])
        assert large > small > 0

    def test_zero_bytes_is_free(self):
        fills = self._model(ThetaMachine(16))
        assert fills([0], [16], 0).tolist() == [0.0]

    @pytest.mark.parametrize("machine_cls", [ThetaMachine, MiraMachine])
    def test_fill_times_equal_scalar_oracle(self, machine_cls):
        """Element by element, the array form equals the scalar fill time,
        including aggregators the flow analysis never saw (defaults)."""
        import random

        machine = machine_cls(64)
        analysis = analyze_flows(
            machine.topology, {0: list(range(16)), 21: list(range(16, 40)), 50: [50]}
        )
        rng = random.Random(5)
        nodes = [rng.choice([0, 21, 50, 7]) for _ in range(200)]
        senders = [rng.randint(1, 64) for _ in nodes]
        round_bytes = [rng.choice([0.0, rng.uniform(1, 1 << 30)]) for _ in nodes]
        fills = self._fills(machine, analysis, nodes, senders, round_bytes).tolist()
        assert fills == [
            reference_fill_time(machine, analysis, 16, n, k, b)
            for n, k, b in zip(nodes, senders, round_bytes)
        ]
        shared = self._fills(machine, analysis, nodes, senders, 3.0 * MIB).tolist()
        assert shared == [
            reference_fill_time(machine, analysis, 16, n, k, 3.0 * MIB)
            for n, k in zip(nodes, senders)
        ]

    def test_fill_times_reject_invalid_inputs(self):
        fills = self._model(ThetaMachine(16))
        with pytest.raises(ValueError):
            fills([0], [16], -1.0)
        with pytest.raises(ValueError):
            fills([0], [0], 1.0)

    def test_election_and_collective_overheads(self):
        machine = ThetaMachine(16)
        assert collective_time(machine, 1) == 0.0
        assert collective_time(machine, 1024) > collective_time(machine, 16) > 0
        assert collective_time(machine, 4096) > 0


class TestModelContext:
    def test_build_context_defaults(self):
        machine = ThetaMachine(64)
        workload = IORWorkload(64 * 16, 1 * MB)
        context = build_context(machine, workload)
        assert context.num_nodes == 64
        assert context.ranks_per_node == 16

    def test_stripe_override_requires_lustre(self):
        machine = MiraMachine(128)
        workload = IORWorkload(128, 1 * MB)
        with pytest.raises(ValueError):
            build_context(
                machine, workload, ranks_per_node=1, stripe=LustreStripeConfig(4, 1 * MIB)
            )

    def test_workload_too_large_rejected(self):
        machine = ThetaMachine(8)
        workload = IORWorkload(10_000, 1 * MB)
        with pytest.raises(ValueError):
            build_context(machine, workload)

    def test_is_aligned(self):
        assert is_aligned(16 * MIB, 8 * MIB)
        assert not is_aligned(12 * MIB, 8 * MIB)
        assert is_aligned(123, 1)


class TestMpiioModel:
    def test_estimate_fields(self):
        machine = ThetaMachine(64)
        workload = IORWorkload(64 * 16, 1 * MB)
        estimate = model_mpiio(machine, workload, MPIIOHints(striping_factor=8, striping_unit=1 * MIB))
        assert estimate.method == "MPI I/O"
        assert estimate.total_bytes == workload.total_bytes()
        assert estimate.num_aggregators >= 1
        assert estimate.elapsed > 0
        assert estimate.details["per_call"]

    def test_tuned_striping_beats_default_on_theta(self):
        machine = ThetaMachine(64)
        workload = IORWorkload(64 * 16, 1 * MB)
        default = model_mpiio(machine, workload, MPIIOHints(striping_factor=1, striping_unit=1 * MIB, aggregators_per_ost=1))
        tuned = model_mpiio(
            machine,
            workload,
            MPIIOHints(striping_factor=48, striping_unit=8 * MIB, aggregators_per_ost=2),
        )
        assert tuned.bandwidth > 5 * default.bandwidth

    def test_lock_sharing_helps_writes_on_gpfs(self):
        machine = MiraMachine(128)
        workload = IORWorkload(128 * 16, 1 * MB)
        shared = model_mpiio(machine, workload, MPIIOHints(cb_nodes=16, shared_locks=True))
        unshared = model_mpiio(machine, workload, MPIIOHints(cb_nodes=16, shared_locks=False))
        assert shared.bandwidth > unshared.bandwidth

    def test_reads_faster_than_writes(self):
        machine = ThetaMachine(64)
        hints = MPIIOHints(striping_factor=48, striping_unit=8 * MIB, aggregators_per_ost=2)
        write = model_mpiio(machine, IORWorkload(64 * 16, 1 * MB, access="write"), hints)
        read = model_mpiio(machine, IORWorkload(64 * 16, 1 * MB, access="read"), hints)
        assert read.bandwidth > write.bandwidth

    def test_independent_io_slower_than_collective_for_many_small_segments(self):
        machine = ThetaMachine(64)
        workload = HACCIOWorkload(64 * 16, 5_000, layout="soa")
        hints = MPIIOHints(striping_factor=48, striping_unit=8 * MIB, aggregators_per_ost=2)
        collective = model_mpiio(machine, workload, hints)
        independent = model_mpiio(
            machine, workload, hints.with_updates(collective_buffering=False)
        )
        assert collective.bandwidth > independent.bandwidth

    def test_soa_slower_than_aos_for_baseline(self):
        machine = ThetaMachine(64)
        hints = MPIIOHints(striping_factor=48, striping_unit=16 * MIB, aggregators_per_ost=4)
        aos = model_mpiio(machine, HACCIOWorkload(64 * 16, 5_000, layout="aos"), hints)
        soa = model_mpiio(machine, HACCIOWorkload(64 * 16, 5_000, layout="soa"), hints)
        assert aos.bandwidth > soa.bandwidth


class TestTapiocaModel:
    def test_estimate_fields(self):
        machine = ThetaMachine(64)
        workload = HACCIOWorkload(64 * 16, 25_000, layout="aos")
        estimate = model_tapioca(
            machine,
            workload,
            TapiocaConfig(num_aggregators=48, buffer_size=8 * MIB),
            stripe=LustreStripeConfig(48, 8 * MIB),
        )
        assert estimate.method == "TAPIOCA"
        assert estimate.num_aggregators == 48
        assert estimate.num_rounds >= 1
        assert estimate.elapsed > 0

    def test_full_mira_machine(self):
        """786,432 ranks on all 49,152 Mira nodes: one aggregator per partition."""
        machine = MiraMachine(49152)
        workload = HACCIOWorkload(49152 * 16, 5_000)
        config = TapiocaConfig(partition_by="contiguous")
        estimate = model_tapioca(machine, workload, config, ranks_per_node=16)
        partitions = build_partitions(workload, estimate.num_aggregators)
        assert estimate.num_aggregators == 16 * machine.num_psets == len(partitions)
        aggregator_nodes = estimate.details["aggregator_nodes"]
        assert len(aggregator_nodes) == len(partitions)
        for index, node in enumerate(aggregator_nodes):
            ranks = partitions.ranks_of(index)
            assert ranks[0] // 16 <= node <= ranks[-1] // 16
        assert int(partitions.totals().sum()) == workload.total_bytes()
        assert estimate.total_bytes == workload.total_bytes()

    @pytest.mark.parametrize("requested", [30, 3])
    def test_pset_partitioning_reports_the_partitions_it_built(self, requested):
        """``partition_by="pset"`` spreads the aggregators evenly over the
        Psets, so it may build more or fewer partitions than requested; the
        estimate must count (and stream through) the ones it built."""
        machine = MiraMachine(512)
        workload = IORWorkload(8192, 1 * MIB)
        config = TapiocaConfig(num_aggregators=requested, partition_by="pset")
        estimate = model_tapioca(machine, workload, config)
        built = len(estimate.details["aggregator_nodes"])
        assert built != requested
        assert estimate.num_aggregators == built
        same = model_tapioca(
            machine, workload, TapiocaConfig(num_aggregators=built, partition_by="pset")
        )
        assert same.details["aggregator_nodes"] == estimate.details["aggregator_nodes"]
        assert estimate.elapsed == same.elapsed
        assert estimate.num_aggregators == same.num_aggregators

    def test_beats_mpiio_on_theta_hacc(self):
        machine = ThetaMachine(64)
        stripe = LustreStripeConfig(48, 16 * MIB)
        workload = HACCIOWorkload(64 * 16, 25_000, layout="aos")
        tapioca = model_tapioca(
            machine,
            workload,
            TapiocaConfig(num_aggregators=192, buffer_size=16 * MIB),
            stripe=stripe,
        )
        mpiio = model_mpiio(
            machine,
            workload,
            MPIIOHints(
                cb_buffer_size=16 * MIB,
                striping_factor=48,
                striping_unit=16 * MIB,
                aggregators_per_ost=4,
            ),
        )
        assert tapioca.bandwidth > 1.5 * mpiio.bandwidth

    def test_layout_invariance_of_tapioca(self):
        """TAPIOCA's cross-call scheduling makes AoS and SoA nearly identical."""
        machine = ThetaMachine(64)
        stripe = LustreStripeConfig(48, 16 * MIB)
        config = TapiocaConfig(num_aggregators=96, buffer_size=16 * MIB)
        aos = model_tapioca(machine, HACCIOWorkload(64 * 16, 25_000, layout="aos"), config, stripe=stripe)
        soa = model_tapioca(machine, HACCIOWorkload(64 * 16, 25_000, layout="soa"), config, stripe=stripe)
        assert abs(aos.bandwidth - soa.bandwidth) / aos.bandwidth < 0.05

    def test_buffer_matching_stripe_is_best(self):
        machine = ThetaMachine(64)
        stripe = LustreStripeConfig(48, 8 * MIB)
        workload = IORWorkload(64 * 16, 1 * MB)
        matched = model_tapioca(
            machine, workload, TapiocaConfig(num_aggregators=48, buffer_size=8 * MIB), stripe=stripe
        )
        smaller = model_tapioca(
            machine, workload, TapiocaConfig(num_aggregators=48, buffer_size=1 * MIB), stripe=stripe
        )
        larger = model_tapioca(
            machine, workload, TapiocaConfig(num_aggregators=48, buffer_size=32 * MIB), stripe=stripe
        )
        assert matched.bandwidth > smaller.bandwidth
        assert matched.bandwidth > larger.bandwidth

    def test_pipelining_never_hurts(self):
        machine = ThetaMachine(64)
        stripe = LustreStripeConfig(48, 8 * MIB)
        workload = IORWorkload(64 * 16, 4 * MB)
        overlapped = model_tapioca(
            machine,
            workload,
            TapiocaConfig(num_aggregators=48, buffer_size=8 * MIB, pipeline_depth=2),
            stripe=stripe,
        )
        sequential = model_tapioca(
            machine,
            workload,
            TapiocaConfig(num_aggregators=48, buffer_size=8 * MIB, pipeline_depth=1),
            stripe=stripe,
        )
        assert overlapped.elapsed <= sequential.elapsed
        assert overlapped.phases.overlapped > 0

    def test_matches_mpiio_on_mira_microbenchmark(self):
        """Fig. 9 parity: on the well-tuned BG/Q stack both perform similarly."""
        machine = MiraMachine(256)
        gpfs = GPFSModel.for_mira_psets(machine.num_psets, subfiling=False)
        workload = IORWorkload(256 * 16, 1 * MIB)
        aggregators = 32 * machine.num_psets
        tapioca = model_tapioca(
            machine,
            workload,
            TapiocaConfig(num_aggregators=aggregators, buffer_size=32 * MIB, partition_by="pset"),
            filesystem=gpfs,
        )
        mpiio = model_mpiio(
            machine,
            workload,
            MPIIOHints(cb_nodes=aggregators, cb_buffer_size=32 * MIB),
            filesystem=gpfs,
        )
        assert abs(tapioca.bandwidth - mpiio.bandwidth) / tapioca.bandwidth < 0.2

    def test_empty_workload_estimate(self):
        machine = ThetaMachine(8)

        class EmptyWorkload(IORWorkload):
            def segments_for_rank(self, rank):
                return []

            def segment_sizes_per_call(self):
                return [0]

            def total_bytes(self):
                return 0

            def bytes_per_rank(self, rank=0):
                return 0

        workload = EmptyWorkload(8 * 16, 1024)
        estimate = model_tapioca(machine, workload, TapiocaConfig(num_aggregators=4))
        assert estimate.total_bytes == 0
        assert estimate.num_rounds == 0
