"""Tests for the node specs and the Mira / Theta / generic machine models."""

import numpy as np
import pytest

from repro.machine.generic import generic_cluster
from repro.machine.mira import MIRA_PSET_SIZE, MiraMachine
from repro.machine.node import bgq_node, commodity_node, knl_node
from repro.machine.theta import ThetaMachine
from repro.perfmodel.common import resolve_filesystem
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.utils.units import GIB, MIB


class TestNodeSpecs:
    def test_bgq_node_matches_paper(self):
        node = bgq_node()
        assert node.cores == 16
        assert node.clock_ghz == pytest.approx(1.6)
        assert node.main_memory.capacity == 16 * GIB

    def test_knl_node_matches_paper(self):
        node = knl_node()
        assert node.cores == 68
        assert node.has_tier("mcdram")
        assert node.tier("mcdram").capacity == 16 * GIB
        assert node.tier("ssd").capacity == 128 * GIB
        assert node.tier("ssd").persistent

    def test_tier_lookup_error(self):
        node = commodity_node()
        with pytest.raises(KeyError):
            node.tier("hbm")

    def test_hardware_threads(self):
        assert bgq_node().hardware_threads == 64

    def test_memory_tier_transfer_time(self):
        tier = knl_node().tier("mcdram")
        assert tier.transfer_time(0) == 0.0
        assert tier.transfer_time(4 * GIB) > tier.transfer_time(1 * GIB)


class TestMiraMachine:
    def test_default_structure(self):
        machine = MiraMachine(512)
        assert machine.num_nodes == 512
        assert machine.num_psets == 4
        assert machine.pset_size == MIRA_PSET_SIZE
        assert isinstance(machine.filesystem(), GPFSModel)

    def test_pset_membership(self):
        machine = MiraMachine(32, pset_size=16)
        assert machine.pset_of_node(0) == 0
        assert machine.pset_of_node(17) == 1
        assert machine.nodes_of_pset(1) == list(range(16, 32))

    def test_bridge_nodes_two_per_pset(self):
        machine = MiraMachine(32, pset_size=16)
        bridges = machine.bridge_nodes()
        assert len(bridges) == 4
        assert bridges[0] == 0 and bridges[1] == 8

    def test_io_gateway_is_in_same_pset(self):
        machine = MiraMachine(32, pset_size=16)
        for node in range(machine.num_nodes):
            gateway = machine.io_gateway_for_node(node)
            assert machine.pset_of_node(gateway.node) == machine.pset_of_node(node)

    def test_distance_to_io_positive(self):
        machine = MiraMachine(32, pset_size=16)
        distances = [machine.distance_to_io(n) for n in range(machine.num_nodes)]
        assert all(d >= 1 for d in distances)
        # Bridge nodes themselves are exactly one hop (the bridge->ION link).
        assert machine.distance_to_io(0) == 1

    def test_io_partitions_are_psets(self):
        machine = MiraMachine(32, pset_size=16)
        partitions = machine.io_partitions()
        assert len(partitions) == 2
        assert partitions[0] == list(range(16))
        assert machine.partition_of_node(20) == 1

    def test_peak_bandwidth_scales_with_psets(self):
        small = MiraMachine(512)
        large = MiraMachine(4096)
        assert large.peak_io_bandwidth() > small.peak_io_bandwidth()
        # Paper: ~89.6 GBps estimated on 4,096 nodes.
        assert large.peak_io_bandwidth() == pytest.approx(89.6e9, rel=0.01)

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ValueError):
            MiraMachine(200, pset_size=128)

    def test_ranks_per_node_validation(self):
        machine = MiraMachine(512)
        machine.validate_ranks_per_node(16)
        with pytest.raises(ValueError):
            machine.validate_ranks_per_node(128)


class TestThetaMachine:
    def test_default_structure(self):
        machine = ThetaMachine(512)
        assert machine.num_nodes == 512
        assert isinstance(machine.filesystem(), LustreModel)
        assert machine.default_ranks_per_node == 16

    def test_io_locality_unknown(self):
        machine = ThetaMachine(64)
        assert machine.io_gateways() == []
        assert machine.io_gateway_for_node(0) is None
        assert machine.distance_to_io(0) is None
        assert not machine.io_locality_known()

    def test_a_striped_file_leaves_the_machine_default(self):
        machine = ThetaMachine(64)
        tuned = resolve_filesystem(machine, stripe=LustreStripeConfig(48, 8 * MIB))
        assert tuned.stripe.stripe_count == 48
        assert machine.filesystem().stripe.stripe_count == 1

    def test_peak_bandwidth_grows_with_stripe_count(self):
        machine = ThetaMachine(64)
        tuned = resolve_filesystem(machine, stripe=LustreStripeConfig(48, 8 * MIB))
        assert tuned.peak_write_bandwidth() > machine.peak_io_bandwidth()

    def test_single_io_partition(self):
        machine = ThetaMachine(16)
        assert machine.io_partitions() == [list(range(16))]


class TestGenericCluster:
    def test_structure(self):
        machine = generic_cluster(32, nodes_per_leaf=8, num_gateways=2)
        assert machine.num_nodes == 32
        assert len(machine.io_gateways()) == 2
        assert machine.io_locality_known()

    def test_gateway_lookup(self):
        machine = generic_cluster(32, nodes_per_leaf=8, num_gateways=2)
        gateway = machine.io_gateway_for_node(5)
        assert gateway is not None
        assert machine.distance_to_io(5) >= 1

    def test_rejects_indivisible_node_count(self):
        with pytest.raises(ValueError):
            generic_cluster(30, nodes_per_leaf=8)


def _machines():
    return [
        MiraMachine(512),
        MiraMachine(48, pset_size=16),
        ThetaMachine(200),
        generic_cluster(64, nodes_per_leaf=8, num_gateways=3),
    ]


@pytest.mark.parametrize("machine", _machines(), ids=lambda m: f"{m.name}-{m.num_nodes}")
class TestBatchedNodeQueries:
    """The batched node queries equal their per-node scalar counterparts."""

    def test_partitions_of_nodes_equal_per_node_lookup(self, machine):
        nodes = np.random.default_rng(5).permutation(machine.num_nodes)
        batched = machine.partitions_of_nodes(nodes).tolist()
        assert batched == [machine.partition_of_node(int(n)) for n in nodes]
        groups = machine.io_partitions()
        assert batched == [
            next(i for i, members in enumerate(groups) if n in members) for n in nodes
        ]

    def test_partitions_of_nodes_reject_invalid_nodes(self, machine):
        with pytest.raises(ValueError):
            machine.partitions_of_nodes(np.array([0, -1]))
        with pytest.raises(ValueError):
            machine.partitions_of_nodes(np.array([machine.topology.num_nodes]))


@pytest.mark.parametrize(
    "machine",
    [m for m in _machines() if m.io_locality_known()],
    ids=lambda m: f"{m.name}-{m.num_nodes}",
)
def test_io_distances_and_bandwidths_equal_per_node_lookup(machine):
    nodes = np.random.default_rng(9).permutation(machine.num_nodes)[:100]
    assert machine.io_distances(nodes).tolist() == [
        machine.distance_to_io(int(n)) for n in nodes
    ]
    assert machine.io_bandwidths(nodes).tolist() == [
        machine.io_bandwidth_for_node(int(n)) for n in nodes
    ]
