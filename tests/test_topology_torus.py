"""Tests for the n-dimensional torus topology (BG/Q)."""

import networkx as nx
import pytest

from repro.topology.torus import BGQ_LINK_BANDWIDTH, TorusTopology
from reference import routes as reference_routes


class TestStructure:
    def test_num_nodes(self):
        topo = TorusTopology((4, 4, 4, 4, 2))
        assert topo.num_nodes == 512

    def test_dimensions(self):
        topo = TorusTopology((2, 3, 4))
        assert topo.dimensions() == (2, 3, 4)

    def test_coordinate_round_trip(self):
        topo = TorusTopology((3, 4, 5))
        for node in range(topo.num_nodes):
            assert topo.node_from_coordinates(topo.coordinates(node)) == node

    def test_coordinates_in_range(self):
        topo = TorusTopology((2, 2, 3))
        for node in range(topo.num_nodes):
            coords = topo.coordinates(node)
            for coord, dim in zip(coords, topo.dimensions()):
                assert 0 <= coord < dim

    def test_invalid_node_rejected(self):
        topo = TorusTopology((2, 2))
        with pytest.raises(ValueError):
            topo.coordinates(4)
        with pytest.raises(ValueError):
            topo.coordinates(-1)

    def test_invalid_coordinates_rejected(self):
        topo = TorusTopology((2, 2))
        with pytest.raises(ValueError):
            topo.node_from_coordinates((2, 0))
        with pytest.raises(ValueError):
            topo.node_from_coordinates((0,))

    def test_neighbors_count_5d(self):
        # Interior of a torus with all dims > 2: 2 neighbours per dimension.
        topo = TorusTopology((4, 4, 4))
        assert len(topo.neighbors(0)) == 6

    def test_neighbors_deduplicated_on_size_two_dims(self):
        # In a dimension of size 2, +1 and -1 reach the same node.
        topo = TorusTopology((2, 4))
        assert len(topo.neighbors(0)) == 3

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            TorusTopology(())

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            TorusTopology((4, 0, 2))


class TestDistanceAndRouting:
    def test_distance_zero_to_self(self):
        topo = TorusTopology((4, 4))
        assert topo.distance(5, 5) == 0

    def test_distance_symmetry(self):
        topo = TorusTopology((3, 4, 2))
        for a in range(0, topo.num_nodes, 3):
            for b in range(0, topo.num_nodes, 5):
                assert topo.distance(a, b) == topo.distance(b, a)

    def test_wraparound_shortcut(self):
        # On a ring of 4, node 0 and node 3 are 1 hop apart (wraparound).
        topo = TorusTopology((4,))
        assert topo.distance(0, 3) == 1

    def test_distance_matches_networkx_shortest_path(self):
        topo = TorusTopology((3, 3, 2))
        graph = topo.to_networkx()
        for a in range(topo.num_nodes):
            for b in range(a + 1, topo.num_nodes, 4):
                assert topo.distance(a, b) == nx.shortest_path_length(graph, a, b)

    def test_route_length_equals_distance(self):
        topo = TorusTopology((4, 4, 2))
        for a in range(0, topo.num_nodes, 7):
            for b in range(0, topo.num_nodes, 5):
                route = reference_routes.route(topo, a, b)
                assert len(route) == topo.distance(a, b)

    def test_route_links_are_adjacent_steps(self):
        topo = TorusTopology((4, 4))
        route = reference_routes.route(topo, 0, 10)
        current = 0
        for here, there, kind, _bandwidth in route:
            assert (here, kind) == (current, "torus")
            assert topo.distance(here, there) == 1
            current = there
        assert current == 10

    def test_route_to_self_is_empty(self):
        topo = TorusTopology((4, 4))
        assert reference_routes.route(topo, 3, 3) == []
        assert (topo.route_links([3], [3]) == -1).all()
        assert topo.distance(3, 3) == 0
        assert topo.path_bandwidth(3, 3) == float("inf")

    def test_transfer_time_formula(self):
        topo = TorusTopology((4, 4), link_bandwidth=1e9, link_latency=1e-6)
        hops = topo.distance(0, 5)
        expected = hops * 1e-6 + 1000 / 1e9
        assert topo.transfer_time(0, 5, 1000) == pytest.approx(expected)

    def test_link_bandwidth_default(self):
        topo = TorusTopology((2, 2))
        assert topo.link_bandwidth() == BGQ_LINK_BANDWIDTH
        with pytest.raises(ValueError):
            topo.link_bandwidth("optical")


class TestBgqPartitions:
    @pytest.mark.parametrize("nodes", [32, 128, 512, 1024, 4096])
    def test_known_shapes(self, nodes):
        topo = TorusTopology.bgq_partition(nodes)
        assert topo.num_nodes == nodes
        assert len(topo.dimensions()) == 5

    def test_fallback_factorisation(self):
        topo = TorusTopology.bgq_partition(96)
        assert topo.num_nodes == 96

