"""Tests for the memory-tier extension and the high-level Tapioca facade."""

import pytest

from repro.core.api import DeclaredWorkload, Tapioca
from repro.core.config import TapiocaConfig
from repro.core.memory import choose_aggregation_tier, staging_benefit
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.node import bgq_node, knl_node
from repro.machine.theta import ThetaMachine
from repro.storage.base import IOPhaseProfile
from repro.storage.burst_buffer import BurstBufferModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.utils.units import GIB, MIB
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload


class TestTapiocaConfig:
    def test_defaults_valid(self):
        config = TapiocaConfig()
        assert config.pipeline_depth == 2
        assert config.placement == "topology-aware"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TapiocaConfig(pipeline_depth=3)
        with pytest.raises(ValueError):
            TapiocaConfig(placement="astrology")
        with pytest.raises(ValueError):
            TapiocaConfig(buffer_size=0)
        with pytest.raises(ValueError):
            TapiocaConfig(aggregation_tier="tape")

    def test_resolve_num_aggregators_mira_default(self):
        machine = MiraMachine(512)
        assert TapiocaConfig().resolve_num_aggregators(machine, 512 * 16) == 16 * 4

    def test_resolve_num_aggregators_lustre_default(self):
        machine = generic_cluster(64)  # files default to 8 OSTs
        assert TapiocaConfig().resolve_num_aggregators(machine, 1024) == 4 * 8

    def test_resolve_clamped_to_rank_count(self):
        machine = ThetaMachine(8)
        assert TapiocaConfig(num_aggregators=10_000).resolve_num_aggregators(machine, 32) == 32

    def test_with_updates(self):
        config = TapiocaConfig().with_updates(buffer_size=8 * MIB)
        assert config.buffer_size == 8 * MIB


class TestAggregationTierSelection:
    def test_knl_prefers_mcdram_when_requested_and_fits(self):
        placement = choose_aggregation_tier(knl_node(), 16 * MIB, 2, preferred="mcdram")
        assert placement.tier.name == "mcdram"
        assert placement.fits

    def test_falls_back_when_requested_tier_too_small(self):
        placement = choose_aggregation_tier(
            knl_node(), 12 * GIB, 2, preferred="mcdram"
        )
        assert placement.tier.name != "mcdram"
        assert not placement.fits

    def test_bgq_node_only_has_dram(self):
        placement = choose_aggregation_tier(bgq_node(), 16 * MIB, 2, preferred="mcdram")
        assert placement.tier.name == "dram"

    def test_oversized_buffers_fall_back_to_main_memory(self):
        placement = choose_aggregation_tier(bgq_node(), 500 * GIB, 2)
        assert placement.tier.name == "dram"
        assert not placement.fits


class TestStagingBenefit:
    def _profile(self, total):
        return IOPhaseProfile(
            total_bytes=total, streams=8, request_size=8 * MIB, access="write"
        )

    def test_ssd_absorb_beats_slow_lustre(self):
        lustre = LustreModel.theta(LustreStripeConfig(1, 1 * MIB))
        burst = BurstBufferModel(num_devices=8)
        decision = staging_benefit(lustre, burst, self._profile(1 * GIB))
        assert decision.use_staging
        assert decision.staged_time < decision.direct_time
        assert decision.drain_time > 0

    def test_capacity_overflow_disables_staging(self):
        lustre = LustreModel.theta(LustreStripeConfig(48, 8 * MIB))
        burst = BurstBufferModel(num_devices=1, device_capacity=1 * GIB)
        decision = staging_benefit(lustre, burst, self._profile(10 * GIB))
        assert not decision.use_staging


class TestDeclaredWorkload:
    def test_paper_style_declaration(self):
        # Three variables of five doubles per rank, AoS-of-arrays offsets as
        # in the paper's Algorithm 2 example.
        n, size = 5, 8
        declarations = []
        for rank in range(4):
            base = rank * 3 * n * size
            declarations.append(
                [(n, size, base), (n, size, base + n * size), (n, size, base + 2 * n * size)]
            )
        workload = DeclaredWorkload(declarations)
        assert workload.num_ranks == 4
        assert workload.num_calls() == 3
        assert workload.bytes_per_rank(0) == 3 * n * size
        assert workload.total_bytes() == 4 * 3 * n * size

    def test_zero_count_variables_are_skipped(self):
        workload = DeclaredWorkload([[(0, 8, 0), (4, 8, 0)]])
        assert len(workload.segments_for_rank(0)) == 1

    def test_invalid_declarations_rejected(self):
        with pytest.raises(ValueError):
            DeclaredWorkload([])
        with pytest.raises(ValueError):
            DeclaredWorkload([[(4, 0, 0)]])
        with pytest.raises(ValueError):
            DeclaredWorkload([[(4, 8, -1)]])


class TestTapiocaFacade:
    def test_requires_declaration_before_use(self):
        tapioca = Tapioca(MiraMachine(16, pset_size=16), ranks_per_node=2)
        with pytest.raises(RuntimeError):
            tapioca.estimate_write()

    def test_declare_rejects_oversized_workloads(self):
        tapioca = Tapioca(MiraMachine(16, pset_size=16), ranks_per_node=1)
        with pytest.raises(ValueError):
            tapioca.declare(IORWorkload(1024, transfer_size=64))

    def test_placement_report_and_partitions(self):
        machine = MiraMachine(16, pset_size=16)
        tapioca = Tapioca(
            machine, TapiocaConfig(num_aggregators=4, buffer_size=4096), ranks_per_node=2
        )
        tapioca.declare(IORWorkload(32, transfer_size=1024))
        partitions = tapioca.partitions()
        placement = tapioca.placement_report()
        assert len(partitions) == 4
        assert len(placement.aggregators) == 4
        schedule = tapioca.schedule()
        assert schedule.total_bytes() == 32 * 1024

    def test_simulate_write_produces_correct_file_and_bandwidth(self):
        machine = ThetaMachine(8)
        workload = HACCIOWorkload(16, particles_per_rank=100, layout="soa")
        tapioca = Tapioca(
            machine,
            TapiocaConfig(num_aggregators=4, buffer_size=2048),
            ranks_per_node=2,
            stripe=LustreStripeConfig(4, 2048),
        )
        outcome = tapioca.declare(workload).simulate_write(path="/out/api.dat")
        stored = outcome.world_result.files.open("/out/api.dat", create=False)
        assert stored.as_bytes() == workload.expected_file_image()
        assert outcome.total_bytes == workload.total_bytes()
        assert outcome.bandwidth > 0
        assert len(outcome.elected) == 4

    def test_estimate_write_and_read(self):
        machine = ThetaMachine(64)
        workload = IORWorkload(64 * 16, transfer_size=1_000_000)
        tapioca = Tapioca(
            machine,
            TapiocaConfig(num_aggregators=48, buffer_size=8 * MIB),
            stripe=LustreStripeConfig(48, 8 * MIB),
        )
        tapioca.declare(workload)
        write = tapioca.estimate_write()
        read = tapioca.estimate_read()
        assert write.bandwidth > 0
        assert read.bandwidth > write.bandwidth  # reads are faster on Lustre
        assert write.num_aggregators == 48

    def test_estimates_use_the_explicit_mapping(self):
        from repro.perfmodel.tapioca import model_tapioca
        from repro.topology.mapping import random_mapping

        machine = ThetaMachine(64)
        workload = IORWorkload(1024, transfer_size=1 * MIB)
        config = TapiocaConfig(num_aggregators=8)
        mapping = random_mapping(1024, 64, 16, seed=5)
        tapioca = Tapioca(machine, config, mapping=mapping).declare(workload)
        report = tapioca.placement_report()
        elected = {mapping.node_of_rank[rank] for rank in report.aggregators}
        for access, estimate in (
            ("write", tapioca.estimate_write()),
            ("read", tapioca.estimate_read()),
        ):
            expected = model_tapioca(
                machine, workload, config, access=access, mapping=mapping
            )
            assert estimate.elapsed == expected.elapsed
            nodes = estimate.details["aggregator_nodes"]
            assert nodes == expected.details["aggregator_nodes"]
            assert set(nodes) == elected
        block = Tapioca(machine, config).declare(workload)
        assert block.estimate_write().elapsed == model_tapioca(
            machine, workload, config
        ).elapsed

    def test_stripe_on_a_non_lustre_machine_is_refused_for_both_paths(self):
        """Mira's file system is GPFS: the estimate refuses the stripe just as
        the discrete-event run does, instead of silently dropping it."""
        workload = IORWorkload(128 * 16, transfer_size=1 * MIB)
        for run in ("estimate_write", "simulate_write"):
            with pytest.raises(ValueError, match="Lustre stripe"):
                tapioca = Tapioca(MiraMachine(128), stripe=LustreStripeConfig(4))
                getattr(tapioca.declare(workload), run)()

    def test_introspection_reads_the_declared_plan(self):
        machine = ThetaMachine(8)
        tapioca = Tapioca(
            machine,
            TapiocaConfig(num_aggregators=4),
            ranks_per_node=2,
            stripe=LustreStripeConfig(4, 2048),
        ).declare(IORWorkload(16, transfer_size=1024))
        plan = tapioca._require_plan()
        assert tapioca.mapping() is plan.context.mapping
        assert tapioca.partitions() is plan.partitions
        assert plan.context.filesystem.stripe == LustreStripeConfig(4, 2048)

    def test_paper_init_api(self):
        machine = MiraMachine(16, pset_size=16)
        tapioca = Tapioca(
            machine, TapiocaConfig(num_aggregators=2, buffer_size=4096), ranks_per_node=2
        )
        n, size = 100, 8
        declarations = []
        for rank in range(32):
            base = rank * 3 * n * size
            declarations.append(
                [
                    (n, size, base),
                    (n, size, base + n * size),
                    (n, size, base + 2 * n * size),
                ]
            )
        outcome = tapioca.init(declarations).simulate_write(path="/out/init.dat")
        expected = tapioca.workload.expected_file_image()
        stored = outcome.world_result.files.open("/out/init.dat", create=False)
        assert stored.as_bytes() == expected
