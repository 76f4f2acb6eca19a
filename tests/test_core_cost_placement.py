"""Tests for the topology interface, the C1/C2 cost model and aggregator placement."""

import numpy as np
import pytest

from repro.core.cost_model import AggregationCostModel, CandidateSets, CostBreakdown
from repro.core.partitioning import Partitions, build_partitions
from repro.core.placement import place_aggregators, placement_cost
from repro.core.topology_iface import TopologyInterface
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
        """Interconnect, I/O and memory levels, from the batch queries."""
        _machine, _mapping, iface = mira_iface
        hops, bandwidths = iface.pair_metrics(np.array([0]), np.array([0, 1]))
        memory, interconnect = bandwidths[0].tolist()
        assert hops[0].tolist() == [0, 1]
        assert interconnect > 0
        assert memory > interconnect
        assert (iface.io_bandwidths(np.arange(32)) > 0).all()

    def test_latency_positive(self, mira_iface):
        assert mira_iface[2].get_latency() > 0

    def test_rank_to_coordinates(self, mira_iface):
        """RankToCoordinates is answered by the batched rank-to-node gather."""
        machine, mapping, iface = mira_iface
        nodes = iface.rank_nodes(np.arange(64))
        assert nodes.tolist() == [mapping.node(rank) for rank in range(64)]
        assert machine.topology.coordinates(int(nodes[5])) == machine.topology.coordinates(
            mapping.node(5)
        )

    def test_distance_between_ranks_same_node(self, mira_iface):
        _machine, mapping, iface = mira_iface
        # Ranks 0 and 1 share node 0 under the block mapping.
        nodes = iface.rank_nodes(np.array([0, 1]))
        hops, _bandwidths = iface.pair_metrics(nodes[:1], nodes[1:])
        assert hops.tolist() == [[0]]

    def test_distance_to_io_on_mira(self, mira_iface):
        machine, _mapping, iface = mira_iface
        assert iface.io_locality_known()
        distances = iface.io_distances(np.arange(32))
        assert (distances >= 1).all()
        assert distances.tolist() == [machine.distance_to_io(n) for n in range(32)]

    def test_distance_to_io_unknown_on_theta(self, theta_iface):
        machine, _mapping, iface = theta_iface
        assert not iface.io_locality_known()
        assert machine.distance_to_io(0) is None

    def test_bandwidth_between_ranks_intra_node_is_memory(self, mira_iface):
        machine, _mapping, iface = mira_iface
        nodes = iface.rank_nodes(np.array([0, 1]))
        _hops, bandwidths = iface.pair_metrics(nodes[:1], nodes[1:])
        assert bandwidths.tolist() == [[machine.node_spec.main_memory.bandwidth]]

    def test_mapping_machine_mismatch_rejected(self):
        machine = MiraMachine(32, pset_size=16)
        with pytest.raises(ValueError):
            TopologyInterface(machine, block_mapping(256, 128, 2))


def _costs(iface, ranks, volumes):
    """``(C1, C2)`` of every rank of one partition, from the election."""
    sets = CandidateSets.of(Partitions.from_sizes([len(ranks)], ranks, volumes), iface)
    return AggregationCostModel(iface).elect(sets)


class TestCostModel:
    def test_zero_volume_only_latency(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        aggregation, _io = _costs(iface, [0, 8, 16], [0, 0, 0])
        # Pure latency term: hops * latency for the two remote producers.
        hops, _bandwidths = iface.pair_metrics(np.array([0, 8]), np.array([4]))
        cost = float(aggregation[1])
        assert cost == iface.get_latency() * hops[0, 0] + iface.get_latency() * hops[1, 0]
        assert 0 < cost < 1e-3

    def test_candidate_excluded_from_c1(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        # A single producer that is also the candidate: no aggregation cost.
        aggregation, _io = _costs(iface, [4], [10**9])
        assert aggregation.tolist() == [0.0]

    def test_c1_grows_with_volume(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        small, _io = _costs(iface, [0, 32], [0, 10**6])
        large, _io = _costs(iface, [0, 32], [0, 10**8])
        assert large[0] > small[0]

    def test_c2_zero_when_locality_unknown(self, theta_iface):
        _machine, _mapping, iface = theta_iface
        _aggregation, io = _costs(iface, [3, 9], [10**9, 10**9])
        assert io.tolist() == [0.0, 0.0]

    def test_c2_positive_on_mira(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        _aggregation, io = _costs(iface, [3], [10**8])
        assert io[0] > 0.0

    def test_evaluate_total_is_sum(self, mira_iface):
        _machine, _mapping, iface = mira_iface
        partitions = Partitions.from_sizes([3], [0, 17, 33], [1000, 2000, 500])
        placement = place_aggregators(partitions, iface)
        aggregation, io = placement.costs
        breakdown = placement.breakdowns[0]
        assert isinstance(breakdown, CostBreakdown)
        assert breakdown.total == breakdown.aggregation + breakdown.io
        assert breakdown.total == min((aggregation + io).tolist())

    def test_best_candidate_ties_break_to_lowest_rank(self, theta_iface):
        _machine, _mapping, iface = theta_iface
        model = AggregationCostModel(iface)
        # Two ranks on the same node with identical volumes: identical costs,
        # listed highest rank first.
        sets = CandidateSets.of(Partitions.from_sizes([2], [1, 0], [100, 100]), iface)
        aggregation, io = model.elect(sets)
        assert aggregation[0] == aggregation[1] and io[0] == io[1]
        assert sets.ranks[sets.argmin(aggregation + io)].tolist() == [0]

    def test_negative_volume_rejected(self):
        """A partition rejects negative volumes where they enter, naming the
        first such rank, so no election ever sees one."""
        with pytest.raises(ValueError, match=r"^volume of rank 5 must be >= 0, got -1$"):
            Partitions.from_sizes([3], [0, 5, 7], [3, -1, -2])
        with pytest.raises(ValueError, match="volume of rank 9 "):
            Partitions.from_sizes([2, 1], [4, 6, 9], [1, 0, -5])
        assert Partitions.from_sizes([2], [1, 2], [0, 0]).totals().tolist() == [0]


class TestPartitioning:
    def test_contiguous_partitions_cover_all_ranks(self):
        workload = IORWorkload(32, transfer_size=1024)
        partitions = build_partitions(workload, 5)
        assert sorted(partitions.ranks.tolist()) == list(range(32))
        assert len(partitions) == 5

    def test_partition_volumes_match_workload(self):
        workload = HACCIOWorkload(16, 100, layout="soa")
        partitions = build_partitions(workload, 4)
        for index, total in enumerate(partitions.totals().tolist()):
            ranks, volumes = partitions.ranks_of(index), partitions.volumes_of(index)
            for rank, nbytes in zip(ranks.tolist(), volumes.tolist()):
                assert nbytes == workload.bytes_per_rank(rank)
            assert total == sum(volumes.tolist())

    def test_pset_partitioning_respects_pset_boundaries(self):
        machine = MiraMachine(32, pset_size=16)
        mapping = block_mapping(64, 32, 2)
        workload = IORWorkload(64, transfer_size=512)
        partitions = build_partitions(
            workload, 4, machine=machine, mapping=mapping, partition_by="pset"
        )
        for index in range(len(partitions)):
            ranks = partitions.ranks_of(index).tolist()
            assert len({machine.pset_of_node(mapping.node(r)) for r in ranks}) == 1

    def test_pset_partitioning_requires_machine(self):
        workload = IORWorkload(8, transfer_size=64)
        with pytest.raises(ValueError):
            build_partitions(workload, 2, partition_by="pset")

    def test_partition_of_rank(self):
        workload = IORWorkload(12, transfer_size=64)
        partitions = build_partitions(workload, 3)
        owners = partitions.owners
        assert owners[11] == 2
        assert owners.tolist() == [0] * 4 + [1] * 4 + [2] * 4

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="at least one rank"):
            Partitions.from_sizes([0], (), ())
        with pytest.raises(ValueError, match="at least one rank"):
            Partitions.from_sizes([2, 0], (1, 2), (10, 10))
        with pytest.raises(ValueError, match="aligned"):
            Partitions.from_sizes([2], (1, 2), (10,))
        with pytest.raises(ValueError, match="offsets"):
            Partitions.from_sizes([1], (1, 2), (10, 10))


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
        for index, aggregator in enumerate(placement.aggregators):
            assert aggregator in partitions.ranks_of(index)

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
        for index, aggregator in enumerate(placement.aggregators):
            assert aggregator in partitions.ranks_of(index)

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
        assert placement.aggregators == partitions.ranks[partitions.offsets[:-1]].tolist()

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
        for index, aggregator in enumerate(placement.aggregators):
            volumes = partitions.volumes_of(index)
            position = partitions.ranks_of(index).tolist().index(aggregator)
            assert volumes[position] == volumes.max()

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
        assert set(placement.breakdowns) == set(range(len(partitions)))
