"""Tests for the topology interface, the C1/C2 cost model and aggregator placement."""

import pytest

from repro.core.cost_model import AggregationCostModel, CandidateSets, CostBreakdown
from repro.core.partitioning import Partition, build_partitions, rank_owners
from repro.core.placement import place_aggregators, placement_cost
from repro.core.topology_iface import (
    LEVEL_INTERCONNECT,
    LEVEL_IO,
    LEVEL_MEMORY,
    TopologyInterface,
)
from repro.machine.generic import generic_cluster
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.topology.mapping import block_mapping
from repro.workloads.hacc import HACCIOWorkload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import SyntheticWorkload


@pytest.fixture
def mira_iface():
    machine = MiraMachine(32, pset_size=16)
    mapping = block_mapping(64, 32, 2)
    return machine, mapping, TopologyInterface(machine, mapping)


@pytest.fixture
def theta_iface():
    machine = ThetaMachine(16)
    mapping = block_mapping(32, 16, 2)
    return machine, mapping, TopologyInterface(machine, mapping)


class TestTopologyInterface:
    def test_bandwidth_levels(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        assert iface.get_bandwidth(LEVEL_INTERCONNECT) > 0
        assert iface.get_bandwidth(LEVEL_IO) > 0
        assert iface.get_bandwidth(LEVEL_MEMORY) > iface.get_bandwidth(LEVEL_INTERCONNECT)
        with pytest.raises(ValueError):
            iface.get_bandwidth(42)

    def test_latency_positive(self, mira_iface):
        assert mira_iface[2].get_latency() > 0

    def test_rank_to_coordinates(self, mira_iface):
        machine, mapping, iface = mira_iface
        assert iface.rank_to_coordinates(5) == machine.topology.coordinates(
            mapping.node(5)
        )

    def test_distance_between_ranks_same_node(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        # Ranks 0 and 1 share node 0 under the block mapping.
        assert iface.distance_between_ranks(0, 1) == 0

    def test_distance_to_io_on_mira(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        assert iface.io_locality_known()
        assert iface.distance_to_io_node(0) >= 1
        assert iface.io_nodes_per_file() != []

    def test_distance_to_io_unknown_on_theta(self, theta_iface):
        _machine, _mapping, iface = theta_iface
        assert not iface.io_locality_known()
        assert iface.distance_to_io_node(0) is None
        assert iface.io_nodes_per_file() == []

    def test_bandwidth_between_ranks_intra_node_is_memory(self, mira_iface):
        machine, _mapping, iface = mira_iface
        assert (
            iface.bandwidth_between_ranks(0, 1)
            == machine.node_spec.main_memory.bandwidth
        )

    def test_mapping_machine_mismatch_rejected(self):
        machine = MiraMachine(32, pset_size=16)
        with pytest.raises(ValueError):
            TopologyInterface(machine, block_mapping(256, 128, 2))


class TestCostModel:
    def test_zero_volume_only_latency(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        volumes = {0: 0, 8: 0, 16: 0}
        cost = model.aggregation_cost(8, volumes)
        # Pure latency term: hops * latency for the two remote producers.
        assert cost > 0
        assert cost < 1e-3

    def test_candidate_excluded_from_c1(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        # A single producer that is also the candidate: no aggregation cost.
        assert model.aggregation_cost(4, {4: 10**9}) == 0.0

    def test_c1_grows_with_volume(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        small = model.aggregation_cost(0, {32: 10**6})
        large = model.aggregation_cost(0, {32: 10**8})
        assert large > small

    def test_c2_zero_when_locality_unknown(self, theta_iface):
        _machine, _mapping, iface = theta_iface
        model = AggregationCostModel(iface)
        assert model.io_cost(3, 10**9) == 0.0

    def test_c2_positive_on_mira(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        assert model.io_cost(3, 10**8) > 0.0

    def test_evaluate_total_is_sum(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        volumes = {0: 1000, 17: 2000, 33: 500}
        breakdown = model.evaluate(17, volumes)
        assert isinstance(breakdown, CostBreakdown)
        assert breakdown.total == pytest.approx(breakdown.aggregation + breakdown.io)

    def test_best_candidate_ties_break_to_lowest_rank(self, theta_iface):
        _machine, _mapping, iface = theta_iface
        model = AggregationCostModel(iface)
        # Two ranks on the same node with identical volumes: identical costs,
        # listed highest rank first.
        sets = CandidateSets.of([Partition(0, [1, 0], [100, 100])], iface)
        aggregation, io = model.elect(sets)
        assert aggregation[0] == aggregation[1] and io[0] == io[1]
        assert sets.ranks[sets.argmin(aggregation + io)].tolist() == [0]

    def test_negative_volume_rejected(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        model = AggregationCostModel(iface)
        with pytest.raises(ValueError):
            model.aggregation_cost(0, {5: -1})


class TestPartitioning:
    def test_contiguous_partitions_cover_all_ranks(self):
        workload = IORWorkload(32, transfer_size=1024)
        partitions = build_partitions(workload, 5)
        all_ranks = sorted(r for p in partitions for r in p.ranks)
        assert all_ranks == list(range(32))
        assert len(partitions) == 5

    def test_partition_volumes_match_workload(self):
        workload = HACCIOWorkload(16, 100, layout="soa")
        partitions = build_partitions(workload, 4)
        for partition in partitions:
            for rank, nbytes in zip(partition.ranks, partition.volumes):
                assert nbytes == workload.bytes_per_rank(int(rank))
            assert partition.total_bytes == sum(partition.volumes.tolist())

    def test_pset_partitioning_respects_pset_boundaries(self):
        machine = MiraMachine(32, pset_size=16)
        mapping = block_mapping(64, 32, 2)
        workload = IORWorkload(64, transfer_size=512)
        partitions = build_partitions(
            workload, 4, machine=machine, mapping=mapping, partition_by="pset"
        )
        for partition in partitions:
            psets = {machine.pset_of_node(mapping.node(r)) for r in partition.ranks}
            assert len(psets) == 1

    def test_pset_partitioning_requires_machine(self):
        workload = IORWorkload(8, transfer_size=64)
        with pytest.raises(ValueError):
            build_partitions(workload, 2, partition_by="pset")

    def test_partition_of_rank(self):
        workload = IORWorkload(12, transfer_size=64)
        partitions = build_partitions(workload, 3)
        owners = rank_owners(partitions)
        assert owners[11] == 2
        assert owners.tolist() == [p.index for p in partitions for _ in p.ranks]

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(0, (), ())
        with pytest.raises(ValueError):
            Partition(0, (1, 2), (10,))


class TestPlacement:
    def _setup(self, machine, num_ranks, ranks_per_node, workload, num_aggr):
        num_nodes = num_ranks // ranks_per_node
        mapping = block_mapping(num_ranks, num_nodes, ranks_per_node)
        iface = TopologyInterface(machine, mapping)
        partitions = build_partitions(workload, num_aggr)
        return mapping, iface, partitions

    def test_one_aggregator_per_partition_from_its_members(self):
        machine = MiraMachine(32, pset_size=16)
        workload = IORWorkload(64, transfer_size=4096)
        _mapping, iface, partitions = self._setup(machine, 64, 2, workload, 8)
        placement = place_aggregators(partitions, iface)
        assert len(placement.aggregators) == 8
        for partition, aggregator in zip(partitions, placement.aggregators):
            assert aggregator in partition.ranks

    def test_full_mira_partition_elects_one_aggregator_per_pset_partition(self):
        """The C1+C2 election on a 512-node Mira allocation at node granularity."""
        machine = MiraMachine(512)
        num_ranks = 512 * 16
        workload = HACCIOWorkload(num_ranks, 25_000, layout="aos")
        mapping = block_mapping(num_ranks, 512, 16)
        iface = TopologyInterface(machine, mapping)
        partitions = build_partitions(
            workload, 64, machine=machine, mapping=mapping, partition_by="pset"
        )
        placement = place_aggregators(
            partitions, iface, strategy="topology-aware", granularity="node"
        )
        assert len(placement.aggregators) == len(partitions) == 64
        for partition, aggregator in zip(partitions, placement.aggregators):
            assert aggregator in partition.ranks

    def test_topology_aware_is_optimal_under_its_own_objective(self):
        machine = generic_cluster(32, nodes_per_leaf=8, num_gateways=2)
        workload = SyntheticWorkload(64, seed=3, max_segment_bytes=1 << 16)
        mapping = block_mapping(64, 32, 2)
        iface = TopologyInterface(machine, mapping)
        partitions = build_partitions(workload, 4)
        topo = place_aggregators(partitions, iface, strategy="topology-aware")
        for strategy in ("rank-order", "random", "max-volume", "shortest-io"):
            other = place_aggregators(partitions, iface, strategy=strategy, seed=5)
            assert placement_cost(topo, partitions, iface) <= placement_cost(
                other, partitions, iface
            ) * (1 + 1e-9)

    def test_node_granularity_matches_rank_granularity_cost(self):
        machine = MiraMachine(32, pset_size=16)
        workload = IORWorkload(64, transfer_size=8192)
        _mapping, iface, partitions = self._setup(machine, 64, 2, workload, 4)
        by_rank = place_aggregators(partitions, iface, granularity="rank")
        by_node = place_aggregators(partitions, iface, granularity="node")
        # The two elections may pick different ranks on the same node; their
        # objective values must nevertheless be identical.
        mapping = block_mapping(64, 32, 2)
        nodes_rank = [mapping.node(r) for r in by_rank.aggregators]
        nodes_node = [mapping.node(r) for r in by_node.aggregators]
        assert nodes_rank == nodes_node

    def test_rank_order_strategy(self):
        machine = ThetaMachine(16)
        workload = IORWorkload(32, transfer_size=1024)
        _mapping, iface, partitions = self._setup(machine, 32, 2, workload, 4)
        placement = place_aggregators(partitions, iface, strategy="rank-order")
        assert placement.aggregators == [p.ranks[0] for p in partitions]

    def test_random_strategy_deterministic_for_seed(self):
        machine = ThetaMachine(16)
        workload = IORWorkload(32, transfer_size=1024)
        _mapping, iface, partitions = self._setup(machine, 32, 2, workload, 4)
        a = place_aggregators(partitions, iface, strategy="random", seed=11)
        b = place_aggregators(partitions, iface, strategy="random", seed=11)
        assert a.aggregators == b.aggregators

    def test_max_volume_strategy(self):
        machine = ThetaMachine(16)
        workload = SyntheticWorkload(32, seed=2, max_segment_bytes=4096)
        _mapping, iface, partitions = self._setup(machine, 32, 2, workload, 4)
        placement = place_aggregators(partitions, iface, strategy="max-volume")
        for partition, aggregator in zip(partitions, placement.aggregators):
            assert partition.volume_map()[aggregator] == partition.volumes.max()

    def test_unknown_strategy_rejected(self):
        machine = ThetaMachine(16)
        workload = IORWorkload(32, transfer_size=64)
        _mapping, iface, partitions = self._setup(machine, 32, 2, workload, 2)
        with pytest.raises(ValueError):
            place_aggregators(partitions, iface, strategy="simulated-annealing")

    def test_breakdowns_recorded_for_topology_aware(self):
        machine = MiraMachine(32, pset_size=16)
        workload = IORWorkload(64, transfer_size=1024)
        _mapping, iface, partitions = self._setup(machine, 64, 2, workload, 4)
        placement = place_aggregators(partitions, iface)
        assert set(placement.breakdowns) == {p.index for p in partitions}
