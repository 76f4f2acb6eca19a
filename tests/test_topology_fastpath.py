"""Cached/batched routing and cost results equal their oracles.

The topologies memoise ``distance``/``path_bandwidth``, answer batch
queries with vectorised kernels, count link loads over link-id matrices,
and the placement cost model elects every partition of a list in one
segmented pass over stacked pair tensors.  These property-style tests pin
each of them bit for bit to an oracle — the route walks of
``tests/reference/routes.py`` and the self-contained per-pair cost loop of
``tests/reference/cost_model.py`` — over randomised node pairs and
partition lists on all three topologies, and check that cache state never
leaks across machine instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cost_model import AggregationCostModel, CandidateSets, CostBreakdown
from repro.core.partitioning import build_partitions
from repro.core.placement import place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.mapping import block_mapping
from repro.topology.torus import TorusTopology
from repro.workloads.hacc import HACCIOWorkload
from reference import cost_model as reference
from reference import demands as reference_demands
from reference.partitioning import Partition, join, split
from reference import routes as reference_routes


def _topologies():
    return [
        TorusTopology((4, 4, 4, 4, 2)),
        TorusTopology((3, 5, 2)),
        DragonflyTopology(groups=3, routers_per_group=7, nodes_per_router=4),
        DragonflyTopology.theta_partition(200),
        FatTreeTopology(6, 3, 5),
    ]


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_cached_distance_and_route_equal_scalar_path(topology):
    rng = random.Random(2017)
    n = topology.num_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    for a, b in pairs:
        scalar_distance = reference_routes.distance(topology, a, b)
        scalar_bandwidth = reference_routes.path_bandwidth(topology, a, b)
        for _ in range(2):  # the second round is a guaranteed memo hit
            assert topology.distance(a, b) == scalar_distance
            assert topology.path_bandwidth(a, b) == scalar_bandwidth
            assert type(topology.distance(a, b)) is int
            assert type(topology.path_bandwidth(a, b)) is float
    _assert_links_name_routes(topology, pairs)


def _assert_links_name_routes(topology, pairs, names=None):
    """``route_links`` rows spell the oracle routes of ``pairs``.

    Each row's non-negative ids, left to right, must be its route's links,
    every other slot ``-1``; ids must name links one to one: every
    occurrence of a link gets the same id and no id stands for two links;
    each id's ``_link_bandwidths`` is its link's bandwidth; and each row's
    narrowest link is the pair's ``_batch_path_bandwidths``.  ``names``
    carries that id <-> link naming across calls on one topology.
    """
    names = {} if names is None else names
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    links = topology.route_links(src, dst)
    assert links.dtype == np.int64 and links.shape[0] == len(pairs)
    bandwidths = topology._link_bandwidths(links)
    assert bandwidths.dtype == np.float64 and bandwidths.shape == links.shape
    narrowest = np.where(links >= 0, bandwidths, np.inf).min(axis=1, initial=np.inf)
    assert narrowest.tolist() == topology._batch_path_bandwidths(src, dst).tolist()
    for (a, b), row, row_bandwidths in zip(pairs, links.tolist(), bandwidths.tolist()):
        route = reference_routes.route(topology, a, b)
        ids = [x for x in row if x >= 0]
        assert len(ids) == len(route)
        assert len(ids) + row.count(-1) == len(row)
        id_bandwidths = [bw for x, bw in zip(row, row_bandwidths) if x >= 0]
        for link, link_id, bandwidth in zip(route, ids, id_bandwidths):
            key = link[:2]
            assert names.setdefault(("link", key), link_id) == link_id
            assert names.setdefault(("id", link_id), key) == key
            assert bandwidth == link[3]
    return names


def _all_pairs(topology):
    nodes = range(topology.num_nodes)
    return [(a, b) for a in nodes for b in nodes]


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_route_links_equal_scalar_routes(topology):
    """Seeded random pairs and every self-pair."""
    rng = random.Random(19)
    n = topology.num_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    names = _assert_links_name_routes(topology, pairs)
    _assert_links_name_routes(topology, [(a, a) for a in range(n)], names)
    assert topology.route_links([], []).shape[0] == 0


@pytest.mark.parametrize("dims", [(1,), (2,), (5,), (6,), (2, 3, 1, 4), (4, 4, 4, 4, 2)])
def test_torus_route_links_on_every_ring_shape(dims):
    """Rings of size 1, 2, odd and even, with ties exactly half way round."""
    topology = TorusTopology(dims)
    sources = range(0, topology.num_nodes, 1 if topology.num_nodes <= 64 else 31)
    pairs = [(a, b) for a in sources for b in range(topology.num_nodes)]
    _assert_links_name_routes(topology, pairs)


def test_dragonfly_route_links_cover_every_route_shape():
    topology = DragonflyTopology(groups=3, routers_per_group=4, nodes_per_router=2)
    pairs = _all_pairs(topology)
    _assert_links_name_routes(topology, pairs)
    router = topology.router_of
    group = topology.group_of
    gateway = topology._gateway_router
    shapes = {
        "same router": [(a, b) for a, b in pairs if a != b and router(a) == router(b)],
        "same group": [
            (a, b) for a, b in pairs if router(a) != router(b) and group(a) == group(b)
        ],
        "source is the gateway": [
            (a, b)
            for a, b in pairs
            if group(a) != group(b) and router(a) == gateway(group(a), group(b))
        ],
        "destination is the gateway": [
            (a, b)
            for a, b in pairs
            if group(a) != group(b) and router(b) == gateway(group(b), group(a))
        ],
    }
    for shape, members in shapes.items():
        assert members, shape
        _assert_links_name_routes(topology, members)
    hops = (topology.route_links(*zip(*shapes["same router"])) >= 0).sum(axis=1)
    assert set(hops.tolist()) == {2}


def test_fattree_route_links_on_and_across_leaves():
    topology = FatTreeTopology(4, 3, 3)
    pairs = _all_pairs(topology)
    _assert_links_name_routes(topology, pairs)
    hops = (topology.route_links(*zip(*pairs)) >= 0).sum(axis=1).tolist()
    for (a, b), count in zip(pairs, hops):
        same_leaf = topology.leaf_of(a) == topology.leaf_of(b)
        assert count == (0 if a == b else 2 if same_leaf else 4)


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_route_links_reject_invalid_nodes(topology):
    n = topology.num_nodes
    for src, dst in ([-1], [0]), ([0], [-1]), ([n], [0]), ([0], [n]):
        with pytest.raises(ValueError):
            topology.route_links(src, dst)
    with pytest.raises(ValueError):
        topology.route_links([0, 1], [0])


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_batch_queries_equal_scalar_loops(topology):
    rng = random.Random(7)
    n = topology.num_nodes
    nodes = [rng.randrange(n) for _ in range(min(n, 128))]
    for _ in range(5):
        src = rng.randrange(n)
        distances = topology.distances_from(src, nodes)
        bandwidths = topology.path_bandwidths_from(src, nodes)
        assert [int(d) for d in distances] == [
            reference_routes.distance(topology, src, m) for m in nodes
        ]
        assert [float(b) for b in bandwidths] == [
            reference_routes.path_bandwidth(topology, src, m) for m in nodes
        ]
        _assert_links_name_routes(topology, [(src, m) for m in nodes])


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_pair_metrics_equal_scalar_loops(topology):
    """One node set, and a stack of node sets broadcast in one call."""
    rng = random.Random(13)
    size = min(topology.num_nodes, 40)
    stack = np.array([rng.sample(range(topology.num_nodes), size) for _ in range(3)])
    stacked_hops, stacked_bandwidths = topology.pair_metrics(stack, stack)
    assert stacked_hops.shape == stacked_bandwidths.shape == (3, size, size)
    for row, nodes in enumerate(stack.tolist()):
        hops, bandwidths = topology.pair_metrics(nodes, nodes)
        assert hops.tolist() == stacked_hops[row].tolist() == [
            [reference_routes.distance(topology, a, b) for b in nodes] for a in nodes
        ]
        assert bandwidths.tolist() == stacked_bandwidths[row].tolist() == [
            [reference_routes.path_bandwidth(topology, a, b) for b in nodes]
            for a in nodes
        ]


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_batch_queries_reject_invalid_nodes(topology):
    with pytest.raises(ValueError):
        topology.distances_from(0, [0, topology.num_nodes])
    with pytest.raises(ValueError):
        topology.distances_from(topology.num_nodes, [0])
    with pytest.raises(ValueError):
        topology.path_bandwidths_from(0, [-1])


def test_cache_state_never_leaks_across_instances():
    """Two same-shape machines with different link speeds stay independent."""
    fast = TorusTopology((4, 4, 2), link_bandwidth=2.0e9)
    slow = TorusTopology((4, 4, 2), link_bandwidth=1.0e9)
    # Warm the fast instance's memo first.
    for dst in range(1, fast.num_nodes):
        fast.distance(0, dst)
        fast.path_bandwidth(0, dst)
    for dst in range(1, slow.num_nodes):
        assert slow.path_bandwidth(0, dst) == 1.0e9
        assert fast.path_bandwidth(0, dst) == 2.0e9
        assert slow.distance(0, dst) == fast.distance(0, dst)
    assert float(slow.path_bandwidths_from(0, [1])[0]) == 1.0e9
    # Different geometry under the same class: distances must differ too.
    ring = TorusTopology((8,))
    assert ring.distance(0, 5) == 3
    assert TorusTopology((16,)).distance(0, 5) == 5


def _random_flows(topology, count, seed):
    """Seeded flows with repeats and self-flows mixed in."""
    rng = random.Random(seed)
    n = topology.num_nodes
    flows = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    return flows + flows[: count // 4] + [(a, a) for a, _ in flows[:5]]


def _oracle_link_counts(topology, flows):
    """Flows per ``(src_endpoint, dst_endpoint)`` link along the oracle
    routes, in first-traversal order."""
    counts = {}
    for src, dst in flows:
        for link in reference_routes.route(topology, src, dst):
            counts[link[:2]] = counts.get(link[:2], 0) + 1
    return counts


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_link_loads_equal_a_walk_of_oracle_routes(topology):
    """Ids, counts and first-traversal order equal counting links along the
    oracle route of each flow, flows in order; the id <-> link naming is
    the one ``route_links`` uses."""
    flows = _random_flows(topology, 200, seed=5)
    names = _assert_links_name_routes(topology, flows)
    counts = _oracle_link_counts(topology, flows)
    ids, loads = reference_demands.link_loads(topology, flows)
    assert ids.dtype == loads.dtype == np.int64
    assert list(zip(ids.tolist(), loads.tolist())) == [
        (names[("link", key)], count) for key, count in counts.items()
    ]
    empty_ids, empty_counts = reference_demands.link_loads(topology, [(0, 0)])
    assert empty_ids.size == empty_counts.size == 0


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_out_of_range_self_pairs_raise(topology):
    """Validation comes before the self-pair shortcut on every query."""
    n = topology.num_nodes
    for node in (n, -1):
        with pytest.raises(ValueError):
            topology.path_bandwidth(node, node)
        with pytest.raises(ValueError):
            topology.transfer_time(node, node, 1024)
        with pytest.raises(ValueError):
            topology.distance(node, node)
        with pytest.raises(ValueError):
            reference_demands.link_loads(topology, [(node, node)])
    assert topology.path_bandwidth(n - 1, n - 1) == float("inf")
    assert topology.transfer_time(n - 1, n - 1, 1024) == 0.0


def _segmented(model, partitions, granularity="rank"):
    """The segmented election as per-partition ``(winner, breakdowns)``,
    the shape of :func:`reference.elect`."""
    sets = CandidateSets.of(join(partitions), model.iface, granularity)
    chosen, (aggregation, io) = model.best_candidate(sets)
    winners = sets.ranks[chosen].tolist()
    rows = [
        CostBreakdown(rank, c1, c2)
        for rank, c1, c2 in zip(sets.ranks.tolist(), aggregation.tolist(), io.tolist())
    ]
    bounds = sets.offsets.tolist()
    return [
        (winner, rows[start:stop])
        for winner, start, stop in zip(winners, bounds, bounds[1:])
    ]


def _random_partitions(rng, mapping, count, max_nodes=40):
    """Partitions over 1 to ``max_nodes`` random nodes each (mixed sizes),
    some ranks dropped, volumes spanning twelve orders of magnitude."""
    by_node = {}
    for rank in range(mapping.num_ranks):
        by_node.setdefault(mapping.node(rank), []).append(rank)
    nodes = sorted(by_node)
    partitions = []
    for index in range(count):
        chosen = rng.sample(nodes, rng.randint(1, min(max_nodes, len(nodes))))
        ranks = sorted(
            rank
            for node in chosen
            for rank in by_node[node]
            if rng.random() < 0.8 or rank == by_node[node][0]
        )
        volumes = [rng.choice((0, rng.randrange(1, 1 << 40))) for _ in ranks]
        partitions.append(Partition(index, ranks, volumes))
    return partitions


def _machines():
    from repro.machine.generic import generic_cluster

    return [
        MiraMachine(64, pset_size=32),  # torus, C2 known
        ThetaMachine(64),  # dragonfly, C2 = 0
        generic_cluster(64, nodes_per_leaf=8, num_gateways=4),  # fat tree, C2 known
    ]


@pytest.mark.parametrize("machine", _machines(), ids=lambda m: m.topology.name)
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_segmented_election_equals_per_candidate_oracle(machine, granularity):
    """Mixed-size partition lists on every topology: every winner, C1 and C2
    equals evaluating each candidate on its own."""
    from repro.topology.mapping import random_mapping

    rng = random.Random(23)
    mapping = random_mapping(machine.num_nodes * 2, machine.num_nodes, 2, seed=9)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    partitions = _random_partitions(rng, mapping, 40)
    assert len({p.size for p in partitions}) > 10
    assert _segmented(model, partitions, granularity) == reference.elect(
        model.iface, partitions, granularity
    )


@pytest.mark.parametrize("machine_cls", [ThetaMachine, MiraMachine])
def test_best_candidate_batched_equals_scalar(machine_cls):
    """Winner and every breakdown equal per-candidate evaluation exactly."""
    from repro.topology.mapping import random_mapping

    machine = machine_cls(64)
    rng = random.Random(11)
    num_ranks = 64 * 4
    mapping = random_mapping(num_ranks, machine.num_nodes, 4, seed=5)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    partitions = []
    for index in range(5):
        ranks = rng.sample(range(num_ranks), 40)
        partitions.append(
            Partition(index, ranks, [rng.randrange(1, 1 << 24) for _ in ranks])
        )
    assert _segmented(model, partitions) == reference.elect(model.iface, partitions)


@pytest.mark.parametrize("num_candidates", [1, 3, 40])
def test_best_candidate_c1_is_a_sequential_sum(num_candidates):
    """C1 adds the producers' terms left to right, in partition order.

    The volumes span twelve orders of magnitude, so a pairwise (``np.sum``)
    reduction of the same terms rounds differently; the segmented C1 of
    each of the first ``num_candidates`` candidates must still equal the
    sequential sum and the per-pair oracle exactly.
    """
    from repro.topology.mapping import block_mapping

    machine = MiraMachine(64)
    mapping = block_mapping(256, 64, 4)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    topology = machine.topology
    rng = random.Random(3)
    producers = rng.sample(range(256), 200)
    partition = Partition(0, producers, [rng.randrange(1, 1 << 40) for _ in producers])
    latency = topology.latency()
    memory_bw = machine.node_spec.main_memory.bandwidth
    [(_winner, breakdowns)] = _segmented(model, [partition])
    for candidate, breakdown in zip(producers[:num_candidates], breakdowns):
        target = mapping.node(candidate)
        terms = [
            latency * topology.distance(mapping.node(rank), target)
            + float(nbytes)
            / (
                memory_bw
                if mapping.node(rank) == target
                else topology.path_bandwidth(mapping.node(rank), target)
            )
            for rank, nbytes in zip(producers, partition.volumes.tolist())
            if rank != candidate
        ]
        sequential = 0.0
        for term in terms:
            sequential += term
        if candidate == producers[0]:
            assert float(np.sum(np.asarray(terms))) != sequential
        assert breakdown.aggregation == sequential
    assert _segmented(model, [partition]) == reference.elect(model.iface, [partition])


def test_best_candidate_batched_handles_candidates_outside_volumes():
    """Candidates holding no data are still costed like everyone else."""
    machine = ThetaMachine(16)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(64, 16, 4)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    ranks = [0, 1, 4, 7, 40, 63]
    volumes = [1024, 2048, 0, 4096, 0, 0]  # three candidates hold no data
    partitions = [Partition(0, ranks, volumes)]
    for granularity in ("rank", "node"):
        assert _segmented(model, partitions, granularity) == reference.elect(
            model.iface, partitions, granularity
        )


def test_best_candidate_empty_volumes_matches_scalar_path():
    """Zero bytes on one node: every total is 0.0 and MINLOC picks rank 2."""
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(16, 8, 2)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    partitions = [Partition(0, [3, 2], [0, 0])]
    [(winner, breakdowns)] = _segmented(model, partitions)
    assert [(winner, breakdowns)] == reference.elect(model.iface, partitions)
    assert winner == 2
    assert all(b.total == 0.0 for b in breakdowns)


def test_nodes_of_ranks_rejects_invalid_ranks_on_both_paths():
    """The candidates' node gather rejects out-of-range ranks at both
    granularities (numpy would wrap a negative rank onto the last node)."""
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    iface = TopologyInterface(machine, block_mapping(128, 8, 16))
    for granularity in ("rank", "node"):
        for valid in (list(range(40)), list(range(0, 128, 20))):
            partitions = join([Partition(0, valid, [1] * len(valid))])
            sets = CandidateSets.of(partitions, iface, granularity)
            assert sorted(set(sets.nodes.tolist())) == sorted({r // 16 for r in valid})
            for bad in ([-1] + valid, valid + [128]):
                with pytest.raises(ValueError, match="out of range"):
                    CandidateSets.of(join([Partition(0, bad, [1] * len(bad))]), iface, granularity)


@pytest.mark.parametrize("machine", _machines(), ids=lambda m: m.topology.name)
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_winner_only_election_equals_full_election(machine, granularity):
    """Costing one chosen candidate per partition gives exactly that
    candidate's entries of the full election."""
    from repro.topology.mapping import random_mapping

    rng = random.Random(41)
    mapping = random_mapping(machine.num_nodes * 2, machine.num_nodes, 2, seed=3)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    sets = CandidateSets.of(join(_random_partitions(rng, mapping, 40)), model.iface, granularity)
    chosen = np.array(
        [rng.randrange(start, stop) for start, stop in zip(sets.offsets[:-1], sets.offsets[1:])]
    )
    aggregation, io = model.elect(sets)
    winners = model.elect(sets, chosen)
    assert winners[0].tolist() == aggregation[chosen].tolist()
    assert winners[1].tolist() == io[chosen].tolist()


def test_ties_break_to_lowest_rank_with_unsorted_ranks():
    """Identical costs on one node: the lowest rank wins wherever it is
    listed, and represents its node at node granularity."""
    from repro.topology.mapping import block_mapping

    machine = MiraMachine(32, pset_size=16)
    iface = TopologyInterface(machine, block_mapping(128, 32, 4))
    model = AggregationCostModel(iface)
    partitions = [
        Partition(0, [3, 1, 2, 0], [100, 100, 100, 100]),
        Partition(1, [7, 5], [100, 100]),
    ]
    for granularity in ("rank", "node"):
        segmented = _segmented(model, partitions, granularity)
        assert [winner for winner, _ in segmented] == [0, 5]
        assert segmented == reference.elect(model.iface, partitions, granularity)
        placement = place_aggregators(join(partitions), iface, granularity=granularity)
        assert placement.aggregators == [0, 5]


@pytest.mark.parametrize("granularity", ["rank", "node"])
@pytest.mark.parametrize("split", ["partitions", "columns"])
def test_chunked_election_equals_unchunked(granularity, split, monkeypatch):
    """A cell budget that splits size groups unevenly, or the largest
    partitions into blocks of candidate columns, changes nothing."""
    from repro.core import cost_model
    from repro.topology.mapping import random_mapping

    machine = MiraMachine(64, pset_size=32)
    mapping = random_mapping(256, 64, 4, seed=4)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    rng = random.Random(31)
    partitions = _random_partitions(rng, mapping, 40, max_nodes=3)
    whole = _segmented(model, partitions, granularity)
    sets = CandidateSets.of(join(partitions), model.iface, granularity)
    sizes = np.diff(sets.offsets)
    largest = int(sizes.max())
    budget = 2 * largest * largest + 1 if split == "partitions" else 2 * largest + 1
    monkeypatch.setattr(cost_model, "_MAX_PAIR_CELLS", budget)
    chunks = list(sets.chunks())
    assert len(chunks) > len(set(sizes.tolist()))
    assert all(rows.size * columns.shape[1] <= budget for rows, columns in chunks)
    covered = sorted(i for _, columns in chunks for i in columns.ravel().tolist())
    assert covered == list(range(sets.ranks.size))
    assert _segmented(model, partitions, granularity) == whole
    assert whole == reference.elect(model.iface, partitions, granularity)
    # One chosen column per partition: whole partitions per chunk, each
    # chunk under the budget.
    chosen = sets.offsets[1:] - 1
    assert all(
        rows.size <= budget and columns.shape[1] == 1
        for rows, columns in sets.chunks(chosen)
    )
    aggregation, io = model.elect(sets, chosen)
    last = [breakdowns[-1] for _, breakdowns in whole]
    assert [(b.aggregation, b.io) for b in last] == list(
        zip(aggregation.tolist(), io.tolist())
    )


def test_full_mira_election_makes_one_kernel_call_per_chunk(monkeypatch):
    """6,144 partitions over all 49,152 Mira nodes: pair tensors are built
    once per chunk of same-size partitions, not once per partition."""
    from repro.core import cost_model
    from repro.topology.mapping import block_mapping

    machine = MiraMachine(49152)
    workload = HACCIOWorkload(49152 * 16, 5_000)
    mapping = block_mapping(workload.num_ranks, machine.num_nodes, 16)
    iface = TopologyInterface(machine, mapping)
    partitions = build_partitions(workload, 6144)
    calls = []
    original = TopologyInterface.pair_metrics

    def counting(self, sources, targets):
        calls.append(sources.shape)
        return original(self, sources, targets)

    monkeypatch.setattr(TopologyInterface, "pair_metrics", counting)
    placement = place_aggregators(partitions, iface, granularity="node")
    assert len(placement.aggregators) == 6144
    sizes = np.diff(placement.candidates.offsets)
    bound = 0
    for size in set(sizes.tolist()):
        per_chunk = max(1, cost_model._MAX_PAIR_CELLS // (size * size))
        blocks = -(-size // max(1, min(size, cost_model._MAX_PAIR_CELLS // size)))
        bound += -(-int((sizes == size).sum()) // per_chunk) * blocks
    assert 0 < len(calls) <= bound < len(partitions)


@pytest.mark.parametrize("machine_cls", [ThetaMachine, MiraMachine])
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_place_aggregators_identical_on_both_paths(machine_cls, granularity):
    """Segmented election == an election that evaluates candidates one by one."""
    machine = machine_cls(64)
    workload = HACCIOWorkload(64 * 4, 10_000, layout="aos")
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(workload.num_ranks, machine.num_nodes, 4)
    iface = TopologyInterface(machine, mapping)
    partitions = build_partitions(workload, 6, machine=machine, mapping=mapping)
    fast = place_aggregators(
        partitions, iface, strategy="topology-aware", granularity=granularity
    )
    scalar = reference.elect(iface, split(partitions), granularity)
    assert fast.aggregators == [winner for winner, _ in scalar]
    assert fast.breakdowns == {
        index: next(b for b in breakdowns if b.candidate == winner)
        for index, (winner, breakdowns) in enumerate(scalar)
    }
