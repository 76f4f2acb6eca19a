"""Mappings over non-contiguous allocations and per-link flow accounting.

The multi-job allocator's scattered policy hands jobs node sets with holes;
these tests pin down that :mod:`repro.topology.mapping` and the link-load
accounting behave on exactly that shape, which the original (contiguous-only)
tests never exercised.
"""

import pytest

from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mapping import allocation_mapping, block_mapping
from repro.topology.torus import TorusTopology
from reference.demands import link_loads


class TestAllocationMapping:
    def test_non_contiguous_nodes_fill_in_order(self):
        nodes = [3, 11, 4, 25]
        mapping = allocation_mapping(8, nodes, num_nodes=32, ranks_per_node=2)
        assert mapping.num_ranks == 8
        assert mapping.num_nodes == 32
        assert mapping.node(0) == 3 and mapping.node(1) == 3
        assert mapping.node(2) == 11
        assert mapping.node(6) == 25 and mapping.node(7) == 25

    def test_ranks_on_node_with_holes(self):
        mapping = allocation_mapping(6, [9, 2, 30], num_nodes=31, ranks_per_node=2)
        assert mapping.ranks_on_node(9) == [0, 1]
        assert mapping.ranks_on_node(2) == [2, 3]
        assert mapping.ranks_on_node(30) == [4, 5]
        # Unallocated nodes host no ranks.
        assert mapping.ranks_on_node(10) == []
        assert mapping.nodes_used() == [2, 9, 30]

    def test_matches_block_mapping_on_contiguous_nodes(self):
        contiguous = allocation_mapping(
            8, list(range(4)), num_nodes=4, ranks_per_node=2
        )
        reference = block_mapping(8, 4, 2)
        assert contiguous.node_of_rank.tolist() == reference.node_of_rank.tolist()

    def test_default_machine_size_covers_max_node(self):
        mapping = allocation_mapping(2, [5, 17], ranks_per_node=1)
        assert mapping.num_nodes == 18

    def test_validation(self):
        with pytest.raises(ValueError):
            allocation_mapping(4, [], ranks_per_node=2)
        with pytest.raises(ValueError):
            allocation_mapping(4, [1, 1], ranks_per_node=2)  # duplicate node
        with pytest.raises(ValueError):
            allocation_mapping(9, [0, 1], ranks_per_node=2)  # does not fit
        with pytest.raises(ValueError):
            allocation_mapping(2, [7], num_nodes=4, ranks_per_node=2)  # id range

    def test_uneven_last_node_absorbs_overflow(self):
        # 5 ranks on 2 nodes at 3 per node: last node takes the remainder.
        mapping = allocation_mapping(5, [8, 1], num_nodes=9, ranks_per_node=3)
        assert mapping.ranks_on_node(8) == [0, 1, 2]
        assert mapping.ranks_on_node(1) == [3, 4]


class TestLinkLoads:
    def test_counts_flows_per_link(self):
        topology = DragonflyTopology(groups=2, routers_per_group=2, nodes_per_router=2)
        ids, counts = link_loads(topology, [(0, 1), (0, 1), (0, 0)])
        # Same-router flow: injection out of node 0 (id 0) and ejection into
        # node 1 (id N + 1), counted twice; the self-flow crosses no link.
        assert ids.tolist() == [0, topology.num_nodes + 1]
        assert counts.tolist() == [2, 2]

    def test_global_link_loads_only_reports_optical_links(self):
        """Decoding the router-link ids of ``link_loads``: a cross-group flow
        crosses exactly one optical link, an intra-group flow none."""
        topology = DragonflyTopology(groups=2, routers_per_group=2, nodes_per_router=2)
        n, routers = topology.num_nodes, topology.num_routers

        def optical(flows):
            ids, _ = link_loads(topology, flows)
            router_a, router_b = divmod(ids[ids >= 2 * n] - 2 * n, routers)
            cross = router_a // 2 != router_b // 2  # two routers per group
            assert topology._link_bandwidths(ids[ids >= 2 * n][cross]).tolist() == [
                topology.link_bandwidth("global")
            ] * int(cross.sum())
            return list(zip(router_a[cross].tolist(), router_b[cross].tolist()))

        # Group 0's gateway towards group 1 is router 1, group 1's back is 2.
        assert optical([(0, n - 1)]) == [(1, 2)]
        assert optical([(0, 2)]) == []

    def test_torus_links_within_sub_box_cover_internal_routes(self):
        """Dimension-order routes between members of a sub-box smaller than
        half of each ring only leave box members: every link id's source
        node (``id // (2·ndims)``) is in the box."""
        topology = TorusTopology((4, 4, 2))
        box = [
            topology.node_from_coordinates((a, b, c))
            for a in range(2)
            for b in range(2)
            for c in range(2)
        ]
        pairs = [(src, dst) for src in box for dst in box if src != dst]
        links = topology.route_links(*zip(*pairs))
        ids = links[links >= 0]
        assert ids.size > 0
        assert set((ids // (2 * 3)).tolist()) <= set(box)
