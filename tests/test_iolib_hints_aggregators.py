"""Tests for MPI-IO hints, baseline aggregator policies and tuning presets."""

import pytest

from repro.iolib.aggregators import (
    bridge_first_aggregators,
    partition_ranks,
    random_aggregators,
    rank_order_aggregators,
    select_default_aggregators,
)
from repro.iolib.hints import MPIIOHints
from repro.iolib.tuning import baseline_hints, optimized_hints
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.topology.mapping import block_mapping, random_mapping
from repro.utils.units import MIB
from reference import aggregators as reference_aggregators


class TestHints:
    def test_defaults(self):
        hints = MPIIOHints()
        assert hints.collective_buffering
        assert hints.cb_buffer_size == 16 * MIB

    def test_resolve_cb_nodes_explicit(self):
        assert MPIIOHints(cb_nodes=7).resolve_cb_nodes(512) == 7

    def test_resolve_cb_nodes_per_ost(self):
        hints = MPIIOHints(aggregators_per_ost=2, striping_factor=48)
        assert hints.resolve_cb_nodes(512) == 96

    def test_resolve_cb_nodes_bgq_default(self):
        # 16 aggregators per 128 nodes.
        assert MPIIOHints().resolve_cb_nodes(512) == 64

    def test_with_updates(self):
        hints = MPIIOHints().with_updates(cb_nodes=3)
        assert hints.cb_nodes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MPIIOHints(cb_buffer_size=0)
        with pytest.raises(ValueError):
            MPIIOHints(cb_nodes=0)


class TestPartitionRanks:
    def test_even_split(self):
        assert partition_ranks(8, 4) == [range(0, 2), range(2, 4), range(4, 6), range(6, 8)]

    def test_uneven_split_front_loaded(self):
        parts = partition_ranks(10, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [rank for part in parts for rank in part] == list(range(10))

    def test_more_partitions_than_ranks(self):
        parts = partition_ranks(3, 8)
        assert len(parts) == 3
        assert all(len(p) == 1 for p in parts)


class TestAggregatorPolicies:
    def test_rank_order(self):
        assert rank_order_aggregators(16, 4) == [0, 4, 8, 12]

    def test_random_is_one_per_partition_and_deterministic(self):
        a = random_aggregators(16, 4, seed=1)
        b = random_aggregators(16, 4, seed=1)
        assert a == b
        partitions = partition_ranks(16, 4)
        for aggregator, partition in zip(a, partitions):
            assert aggregator in partition

    def test_bridge_first_on_mira_prefers_bridge_nodes(self):
        machine = MiraMachine(32, pset_size=16)
        mapping = block_mapping(64, 32, 2)
        aggregators = bridge_first_aggregators(machine, mapping, 4)
        bridge_nodes = set(machine.bridge_nodes())
        # At least the partitions containing a bridge node pick it.
        chosen_nodes = [mapping.node(r) for r in aggregators]
        assert any(node in bridge_nodes for node in chosen_nodes)
        assert len(aggregators) == 4

    @pytest.mark.parametrize(
        "machine, mapping",
        [
            (MiraMachine(512, pset_size=128), block_mapping(8192, 512, 16)),
            (MiraMachine(256, pset_size=64), block_mapping(1000, 256, 4)),
            (MiraMachine(128, pset_size=64), random_mapping(2048, 128, 16, seed=3)),
            (ThetaMachine(128), block_mapping(4096, 128, 32)),
            (generic_cluster(64, num_gateways=4), block_mapping(512, 64, 8)),
        ],
        ids=["mira-block", "mira-partial-nodes", "mira-random", "theta", "generic"],
    )
    def test_bridge_first_equals_the_block_scan_oracle(self, machine, mapping):
        """Every block's first bridge rank, at aggregator counts from one
        block per rank down to one: blocks with several bridge ranks, with
        none (all of Theta's, which exposes no gateway), and uneven blocks."""
        if isinstance(machine, MiraMachine):
            bridge_nodes = set(machine.bridge_nodes())
        else:
            bridge_nodes = {gateway.node for gateway in machine.io_gateways()}
        counts = sorted({1, 2, 3, 7, 16, 31, 64, 100, 255, 1024, mapping.num_ranks})
        on_bridge = off_bridge = 0
        for count in counts:
            expected = reference_aggregators.bridge_first_aggregators(machine, mapping, count)
            assert bridge_first_aggregators(machine, mapping, count) == expected, count
            hits = sum(mapping.node(rank) in bridge_nodes for rank in expected)
            on_bridge, off_bridge = on_bridge + hits, off_bridge + len(expected) - hits
        assert off_bridge > 0
        assert on_bridge > 0 or not bridge_nodes

    def test_default_policy_on_theta_falls_back_to_rank_order(self):
        machine = ThetaMachine(8)
        mapping = block_mapping(16, 8, 2)
        assert select_default_aggregators(machine, mapping, 4) == rank_order_aggregators(
            16, 4
        )

    def test_default_policy_on_mira_uses_bridge_first(self):
        machine = MiraMachine(32, pset_size=16)
        mapping = block_mapping(64, 32, 2)
        assert select_default_aggregators(
            machine, mapping, 4
        ) == bridge_first_aggregators(machine, mapping, 4)

    def test_unknown_policy_rejected(self):
        machine = ThetaMachine(8)
        mapping = block_mapping(16, 8, 2)
        with pytest.raises(ValueError):
            select_default_aggregators(machine, mapping, 4, policy="hungarian")


class TestTuningPresets:
    def test_mira_presets_differ_only_in_lock_sharing(self):
        machine = MiraMachine(512)
        base = baseline_hints(machine)
        tuned = optimized_hints(machine)
        assert base.cb_nodes == tuned.cb_nodes == 16 * machine.num_psets
        assert not base.shared_locks and tuned.shared_locks

    def test_theta_baseline_matches_system_defaults(self):
        machine = ThetaMachine(512)
        base = baseline_hints(machine)
        assert base.striping_factor == 1
        assert base.striping_unit == 1 * MIB
        assert not base.shared_locks

    def test_theta_optimized_matches_paper(self):
        machine = ThetaMachine(512)
        tuned = optimized_hints(machine)
        assert tuned.striping_factor == 48
        assert tuned.striping_unit == 8 * MIB
        assert tuned.aggregators_per_ost == 2
        assert tuned.resolve_cb_nodes(512) == 96

    def test_theta_optimized_scales_aggregators_with_nodes(self):
        assert optimized_hints(ThetaMachine(1024)).aggregators_per_ost == 4

    def test_generic_machine_gets_generic_presets(self):
        from repro.machine.generic import generic_cluster

        machine = generic_cluster(32, nodes_per_leaf=8)
        assert baseline_hints(machine).shared_locks is False
        assert optimized_hints(machine).shared_locks is True
