"""Tests for the dragonfly topology (Cray XC40 Aries)."""

import pytest

from repro.topology.dragonfly import DragonflyTopology
from reference import routes as reference_routes


@pytest.fixture
def small_df() -> DragonflyTopology:
    return DragonflyTopology(groups=3, routers_per_group=4, nodes_per_router=2)


class TestStructure:
    def test_num_nodes(self, small_df):
        assert small_df.num_nodes == 3 * 4 * 2

    def test_num_routers(self, small_df):
        assert small_df.num_routers == 12

    def test_theta_full_size(self):
        topo = DragonflyTopology.theta()
        assert topo.num_nodes == 9 * 96 * 4

    def test_coordinate_round_trip(self, small_df):
        for node in range(small_df.num_nodes):
            coords = small_df.coordinates(node)
            assert small_df.node_from_coordinates(coords) == node

    def test_router_and_group_of(self, small_df):
        # Node 9 -> router 4 -> group 1 for the 3x4x2 configuration.
        assert small_df.router_of(9) == 4
        assert small_df.group_of(9) == 1

    def test_nodes_of_router(self, small_df):
        assert small_df.nodes_of_router(0) == [0, 1]
        assert small_df.nodes_of_router(5) == [10, 11]

    def test_neighbors_share_router(self, small_df):
        assert small_df.neighbors(0) == [1]

    def test_invalid_coordinates(self, small_df):
        with pytest.raises(ValueError):
            small_df.node_from_coordinates((3, 0, 0))
        with pytest.raises(ValueError):
            small_df.node_from_coordinates((0, 4, 0))
        with pytest.raises(ValueError):
            small_df.node_from_coordinates((0, 0, 2))


class TestDistance:
    def test_same_node(self, small_df):
        assert small_df.distance(3, 3) == 0

    def test_same_router(self, small_df):
        assert small_df.distance(0, 1) == 0

    def test_same_group(self, small_df):
        # Different routers of group 0: one electrical hop.
        assert small_df.distance(0, 2) == 1

    def test_inter_group_at_most_three_hops(self, small_df):
        # The paper: "the minimal distance from one node to another is at
        # most three hops" on the XC40 dragonfly.
        for a in range(small_df.num_nodes):
            for b in range(small_df.num_nodes):
                assert small_df.distance(a, b) <= 3

    def test_distance_symmetry(self, small_df):
        for a in range(small_df.num_nodes):
            for b in range(small_df.num_nodes):
                assert small_df.distance(a, b) == small_df.distance(b, a)


class TestRouting:
    def test_route_endpoints(self, small_df):
        route = reference_routes.route(small_df, 0, 23)
        assert route[0][0] == 0
        assert route[-1][1] == 23

    def test_route_includes_injection_and_ejection(self, small_df):
        route = reference_routes.route(small_df, 0, 10)
        kinds = [link[2] for link in route]
        assert kinds[0] == "injection"
        assert kinds[-1] == "ejection"

    def test_inter_group_route_uses_global_link(self, small_df):
        route = reference_routes.route(small_df, 0, 20)  # group 0 -> group 2
        kinds = {link[2] for link in route}
        assert "global" in kinds

    def test_intra_group_route_has_no_global_link(self, small_df):
        route = reference_routes.route(small_df, 0, 6)  # same group, other router
        kinds = {link[2] for link in route}
        assert "global" not in kinds

    def test_router_hops_match_distance(self, small_df):
        for a in range(0, small_df.num_nodes, 3):
            for b in range(0, small_df.num_nodes, 5):
                if a == b:
                    continue
                route = reference_routes.route(small_df, a, b)
                router_hops = sum(1 for link in route if link[2] in ("local", "global"))
                assert router_hops == small_df.distance(a, b)

    def test_link_bandwidth_classes(self, small_df):
        assert small_df.link_bandwidth("local") > small_df.link_bandwidth("global")
        with pytest.raises(ValueError):
            small_df.link_bandwidth("torus")


class TestThetaPartition:
    def test_large_partition_uses_full_groups(self):
        topo = DragonflyTopology.theta_partition(1024)
        assert topo.num_nodes >= 1024
        assert topo.dimensions()[1] == 96

    def test_small_partition_shrinks_groups(self):
        topo = DragonflyTopology.theta_partition(16)
        assert topo.num_nodes >= 16
        assert topo.dimensions()[0] == 2  # still at least two groups
