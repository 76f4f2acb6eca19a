"""Tests for the fat-tree topology and the rank-to-node mappings."""

import numpy as np
import pytest

from repro.topology.fattree import FatTreeTopology
from repro.topology.mapping import (
    RankMapping,
    block_mapping,
    random_mapping,
    round_robin_mapping,
)
from reference import routes as reference_routes


class TestFatTree:
    @pytest.fixture
    def tree(self) -> FatTreeTopology:
        return FatTreeTopology(leaves=4, spines=2, nodes_per_leaf=4)

    def test_num_nodes(self, tree):
        assert tree.num_nodes == 16

    def test_coordinates(self, tree):
        assert tree.coordinates(5) == (1, 1)
        assert tree.node_from_coordinates((1, 1)) == 5

    def test_distance_levels(self, tree):
        assert tree.distance(0, 0) == 0
        assert tree.distance(0, 1) == 1  # same leaf
        assert tree.distance(0, 5) == 2  # across a spine

    def test_route_same_leaf(self, tree):
        route = reference_routes.route(tree, 0, 1)
        kinds = [link[2] for link in route]
        assert kinds == ["injection", "ejection"]

    def test_route_across_spine(self, tree):
        route = reference_routes.route(tree, 0, 12)
        kinds = [link[2] for link in route]
        assert kinds == ["injection", "uplink", "downlink", "ejection"]

    def test_neighbors(self, tree):
        assert tree.neighbors(0) == [1, 2, 3]

    def test_deterministic_spine_choice(self, tree):
        assert (
            reference_routes.route(tree, 0, 12)[1][1]
            == reference_routes.route(tree, 1, 13)[1][1]
        )
        # The closed-form kernel takes the same uplink and downlink too.
        links = tree.route_links([0, 1], [12, 13])
        assert links[0, 1:3].tolist() == links[1, 1:3].tolist()


class TestMappings:
    def test_block_mapping_fills_nodes_in_order(self):
        mapping = block_mapping(8, 4, 2)
        assert mapping.node_of_rank.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_round_robin_mapping(self):
        mapping = round_robin_mapping(8, 4, 2)
        assert mapping.node_of_rank.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_random_mapping_is_balanced_and_deterministic(self):
        a = random_mapping(16, 4, 4, seed=3)
        b = random_mapping(16, 4, 4, seed=3)
        assert a.node_of_rank.tolist() == b.node_of_rank.tolist()
        for node in range(4):
            assert len(a.ranks_on_node(node)) == 4

    def test_random_mapping_seed_changes_layout(self):
        a = random_mapping(16, 4, 4, seed=3)
        b = random_mapping(16, 4, 4, seed=4)
        assert a.node_of_rank.tolist() != b.node_of_rank.tolist()

    def test_holds_one_read_only_int64_array(self):
        mapping = block_mapping(8, 4, 2)
        array = mapping.node_of_rank
        assert array.dtype == np.int64 and not array.flags.writeable
        assert mapping.nodes([0, 7]).tolist() == [0, 3]
        assert type(mapping.node(3)) is int
        with pytest.raises(ValueError):
            array[0] = 1
        source = np.arange(4)
        built = RankMapping(source, 4, 1)
        assert source.flags.writeable and built.node_of_rank is not source

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            block_mapping(10, 2, 4)

    def test_rank_and_node_bounds(self):
        mapping = block_mapping(4, 2, 2)
        with pytest.raises(ValueError):
            mapping.node(4)
        with pytest.raises(ValueError):
            mapping.ranks_on_node(2)

    def test_nodes_used_partial_fill(self):
        mapping = block_mapping(3, 4, 2)
        assert mapping.nodes_used() == [0, 1]

    def test_as_array(self):
        mapping = block_mapping(4, 2, 2)
        arr = mapping.as_array()
        assert arr.tolist() == [0, 0, 1, 1]
        arr[0] = 1  # a writable copy: the mapping itself is untouched
        assert mapping.node(0) == 0
