"""Property-based tests on the topology invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.torus import TorusTopology
from reference import routes as reference_routes


# Strategies generating small topology instances.
torus_dims = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).filter(
    lambda dims: 2 <= __import__("math").prod(dims) <= 64
)


@st.composite
def torus_and_pair(draw):
    dims = draw(torus_dims)
    topo = TorusTopology(dims)
    a = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    return topo, a, b


@st.composite
def dragonfly_and_pair(draw):
    groups = draw(st.integers(min_value=2, max_value=4))
    routers = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.integers(min_value=1, max_value=3))
    topo = DragonflyTopology(groups, routers, nodes)
    a = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    return topo, a, b


@st.composite
def fattree_and_pair(draw):
    leaves = draw(st.integers(min_value=1, max_value=5))
    spines = draw(st.integers(min_value=1, max_value=3))
    nodes = draw(st.integers(min_value=1, max_value=5))
    topo = FatTreeTopology(leaves, spines, nodes)
    a = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    return topo, a, b


ALL_TOPOLOGY_PAIRS = st.one_of(torus_and_pair(), dragonfly_and_pair(), fattree_and_pair())


class TestDistanceInvariants:
    @settings(max_examples=80, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS)
    def test_distance_non_negative_and_zero_iff_self(self, case):
        topo, a, b = case
        distance = topo.distance(a, b)
        assert distance >= 0
        if a == b:
            assert distance == 0

    @settings(max_examples=80, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS)
    def test_distance_symmetry(self, case):
        topo, a, b = case
        assert topo.distance(a, b) == topo.distance(b, a)

    @settings(max_examples=60, deadline=None)
    @given(torus_and_pair())
    def test_torus_route_hops_equal_distance(self, case):
        topo, a, b = case
        assert len(reference_routes.route(topo, a, b)) == topo.distance(a, b)

    @settings(max_examples=60, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS)
    def test_route_connects_endpoints(self, case):
        topo, a, b = case
        route = reference_routes.route(topo, a, b)
        if a == b:
            assert route == []
        else:
            assert route[0][0] == a
            assert route[-1][1] == b
            # Consecutive links meet at a shared endpoint.
            assert all(x[1] == y[0] for x, y in zip(route, route[1:]))

    @settings(max_examples=60, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS)
    def test_route_links_have_positive_bandwidth(self, case):
        topo, a, b = case
        for link in reference_routes.route(topo, a, b):
            assert link[3] > 0
        links = topo.route_links([a], [b])
        assert (topo._link_bandwidths(links[links >= 0]) > 0).all()

    @settings(max_examples=60, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS, st.integers(min_value=0, max_value=10**9))
    def test_transfer_time_monotone_in_size(self, case, nbytes):
        topo, a, b = case
        small = topo.transfer_time(a, b, nbytes)
        large = topo.transfer_time(a, b, nbytes + 1024)
        assert large >= small >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(ALL_TOPOLOGY_PAIRS)
    def test_coordinate_round_trip(self, case):
        topo, a, _b = case
        assert topo.node_from_coordinates(topo.coordinates(a)) == a
