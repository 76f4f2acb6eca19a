"""Cached/batched routing and cost results equal their uncached oracles.

The topologies memoise ``distance``/``route``, answer batch queries with
vectorised kernels, and the placement cost model elects every partition of
a list in one segmented pass over stacked pair tensors.  These
property-style tests pin each of them bit for bit to an oracle — the
uncached ``_distance_impl`` / ``_route_impl`` and per-candidate
:meth:`AggregationCostModel.evaluate` (through
``tests/reference/cost_model.py``) — over randomised node pairs and
partition lists on all three topologies, and check that cache state never
leaks across machine instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cost_model import AggregationCostModel, CandidateSets, CostBreakdown
from repro.core.partitioning import Partition, build_partitions
from repro.core.placement import place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.torus import TorusTopology
from repro.workloads.hacc import HACCIOWorkload
from reference import cost_model as reference


def _path_bandwidth_impl(topology, src: int, dst: int) -> float:
    """Uncached narrowest-link bandwidth (``inf`` for self-pairs)."""
    if src == dst:
        return float("inf")
    return topology._route_impl(src, dst).min_bandwidth


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
    for _ in range(300):
        a, b = rng.randrange(n), rng.randrange(n)
        scalar_distance = topology._distance_impl(a, b)
        scalar_route = topology._route_impl(a, b)
        scalar_bandwidth = _path_bandwidth_impl(topology, a, b)
        assert topology.distance(a, b) == scalar_distance
        # Twice: the second call is a guaranteed cache hit.
        assert topology.distance(a, b) == scalar_distance
        cached_route = topology.route(a, b)
        assert cached_route == scalar_route
        assert topology.route(a, b) is cached_route
        assert topology.path_bandwidth(a, b) == scalar_bandwidth


def _assert_links_name_routes(topology, pairs, names=None):
    """``route_links`` rows spell the ``_route_impl`` routes of ``pairs``.

    Each row's non-negative ids, left to right, must be its route's links,
    every other slot ``-1``; and ids must name links one to one: every
    occurrence of a link gets the same id and no id stands for two links.
    ``names`` carries that id <-> link naming across calls on one topology.
    """
    names = {} if names is None else names
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    links = topology.route_links(src, dst)
    assert links.dtype == np.int64 and links.shape[0] == len(pairs)
    for (a, b), row in zip(pairs, links.tolist()):
        route = topology._route_impl(a, b)
        ids = [x for x in row if x >= 0]
        assert len(ids) == route.hops
        assert len(ids) + row.count(-1) == len(row)
        for link, link_id in zip(route.links, ids):
            assert names.setdefault(("link", link.key), link_id) == link_id
            assert names.setdefault(("id", link_id), link.key) == link.key
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
            topology._distance_impl(src, m) for m in nodes
        ]
        assert [float(b) for b in bandwidths] == [
            _path_bandwidth_impl(topology, src, m) for m in nodes
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
            [topology._distance_impl(a, b) for b in nodes] for a in nodes
        ]
        assert bandwidths.tolist() == stacked_bandwidths[row].tolist() == [
            [_path_bandwidth_impl(topology, a, b) for b in nodes] for a in nodes
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
    # Warm the fast instance's caches first.
    for dst in range(1, fast.num_nodes):
        fast.distance(0, dst)
        fast.route(0, dst)
    for dst in range(1, slow.num_nodes):
        assert slow.route(0, dst).min_bandwidth == 1.0e9
        assert fast.route(0, dst).min_bandwidth == 2.0e9
        assert slow.route(0, dst) is not fast.route(0, dst)
    assert float(slow.path_bandwidths_from(0, [1])[0]) == 1.0e9
    # Different geometry under the same class: distances must differ too.
    ring = TorusTopology((8,))
    assert ring.distance(0, 5) == 3
    assert TorusTopology((16,)).distance(0, 5) == 5


def test_interned_links_are_shared_within_one_instance():
    topology = DragonflyTopology(groups=2, routers_per_group=4, nodes_per_router=2)
    first = topology.route(0, 9)
    # The injection link out of node 0 is one object across routes.
    other = topology.route(0, 5)
    assert first.links[0] is other.links[0]


def _segmented(model, partitions, granularity="rank"):
    """The segmented election as per-partition ``(winner, breakdowns)``,
    the shape of :func:`reference.elect`."""
    sets = CandidateSets.of(partitions, model.iface, granularity)
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
        model, partitions, granularity
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
    assert _segmented(model, partitions) == reference.elect(model, partitions)


@pytest.mark.parametrize("num_candidates", [1, 3, 40])
def test_best_candidate_c1_is_a_sequential_sum(num_candidates):
    """C1 adds the producers' terms left to right, as evaluate() does.

    The volumes span twelve orders of magnitude, so a pairwise (``np.sum``)
    reduction of the same terms rounds differently; the segmented C1 of
    each of the first ``num_candidates`` candidates must still equal the
    sequential sum and the per-candidate oracle exactly.
    """
    from repro.topology.mapping import block_mapping

    machine = MiraMachine(64)
    iface = TopologyInterface(machine, block_mapping(256, 64, 4))
    model = AggregationCostModel(iface)
    rng = random.Random(3)
    producers = rng.sample(range(256), 200)
    partition = Partition(0, producers, [rng.randrange(1, 1 << 40) for _ in producers])
    volumes = partition.volume_map()
    latency = iface.get_latency()
    [(_winner, breakdowns)] = _segmented(model, [partition])
    for candidate, breakdown in zip(producers[:num_candidates], breakdowns):
        terms = [
            latency * iface.distance_between_ranks(rank, candidate)
            + float(nbytes) / iface.bandwidth_between_ranks(rank, candidate)
            for rank, nbytes in volumes.items()
            if rank != candidate
        ]
        sequential = 0.0
        for term in terms:
            sequential += term
        if candidate == producers[0]:
            assert float(np.sum(np.asarray(terms))) != sequential
        assert breakdown.aggregation == sequential
    assert _segmented(model, [partition]) == reference.elect(model, [partition])


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
            model, partitions, granularity
        )


def test_best_candidate_empty_volumes_matches_scalar_path():
    """Zero bytes on one node: every total is 0.0 and MINLOC picks rank 2."""
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(16, 8, 2)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    partitions = [Partition(0, [3, 2], [0, 0])]
    [(winner, breakdowns)] = _segmented(model, partitions)
    assert [(winner, breakdowns)] == reference.elect(model, partitions)
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
            sets = CandidateSets.of([Partition(0, valid, [1] * len(valid))], iface, granularity)
            assert sorted(set(sets.nodes.tolist())) == sorted({r // 16 for r in valid})
            for bad in ([-1] + valid, valid + [128]):
                with pytest.raises(ValueError, match="out of range"):
                    CandidateSets.of([Partition(0, bad, [1] * len(bad))], iface, granularity)


def test_best_candidate_negative_volume_raises_on_both_paths():
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(16, 8, 2)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    partitions = [Partition(0, [0, 1, 2], [100, -5, 100])]
    with pytest.raises(ValueError, match="volume of rank 1"):
        _segmented(model, partitions)
    with pytest.raises(ValueError, match="volume of rank 1"):
        reference.elect(model, partitions)


@pytest.mark.parametrize(
    "volumes",
    [[100, -5, 100], [-5, 100, -7], [-5, 100, 100], [-500, 100, 100], [-5]],
    ids=["middle", "first-and-last", "first-only", "negative-total", "lone"],
)
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_negative_volume_raises_what_evaluate_raises(volumes, granularity):
    """The segmented pass raises the ValueError that per-candidate
    evaluate() calls raise first, after a clean partition."""
    from repro.topology.mapping import block_mapping

    iface = TopologyInterface(ThetaMachine(16), block_mapping(32, 16, 2))
    model = AggregationCostModel(iface)
    ranks = [0, 2, 4][: len(volumes)]
    partitions = [Partition(0, [6, 7], [1, 1]), Partition(1, ranks, volumes)]
    with pytest.raises(ValueError) as expected:
        reference.elect(model, partitions, granularity)
    with pytest.raises(ValueError) as segmented:
        _segmented(model, partitions, granularity)
    assert str(segmented.value) == str(expected.value)


@pytest.mark.parametrize(
    "volumes, winner",
    [([100, -5, 100], 0), ([-5, 100, 100], 0), ([-5, 100, 100], 2), ([-500, 100, 100], 0)],
    ids=["other-negative", "winner-negative", "other-first-negative", "negative-total"],
)
def test_winner_only_election_raises_what_evaluate_raises(volumes, winner):
    """Costing one chosen candidate per partition validates what evaluate()
    on that candidate validates: its own negative volume alone is not
    shipped, so only a negative total fails."""
    from repro.topology.mapping import block_mapping

    iface = TopologyInterface(ThetaMachine(16), block_mapping(32, 16, 2))
    model = AggregationCostModel(iface)
    partitions = [Partition(0, [6, 7], [1, 1]), Partition(1, [0, 2, 4], volumes)]
    sets = CandidateSets.of(partitions, iface)
    chosen = np.array([0, 2 + winner])
    try:
        expected = [
            model.evaluate(int(sets.ranks[i]), p.volume_map())
            for i, p in zip(chosen, partitions)
        ]
    except ValueError as error:
        with pytest.raises(ValueError) as segmented:
            model.elect(sets, chosen)
        assert str(segmented.value) == str(error)
    else:
        aggregation, io = model.elect(sets, chosen)
        assert [(b.aggregation, b.io) for b in expected] == list(
            zip(aggregation.tolist(), io.tolist())
        )


@pytest.mark.parametrize("machine", _machines(), ids=lambda m: m.topology.name)
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_winner_only_election_equals_full_election(machine, granularity):
    """Costing one chosen candidate per partition gives exactly that
    candidate's entries of the full election."""
    from repro.topology.mapping import random_mapping

    rng = random.Random(41)
    mapping = random_mapping(machine.num_nodes * 2, machine.num_nodes, 2, seed=3)
    model = AggregationCostModel(TopologyInterface(machine, mapping))
    sets = CandidateSets.of(_random_partitions(rng, mapping, 40), model.iface, granularity)
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
        assert segmented == reference.elect(model, partitions, granularity)
        placement = place_aggregators(partitions, iface, granularity=granularity)
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
    sets = CandidateSets.of(partitions, model.iface, granularity)
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
    assert whole == reference.elect(model, partitions, granularity)
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
    scalar = reference.elect(AggregationCostModel(iface), partitions, granularity)
    assert fast.aggregators == [winner for winner, _ in scalar]
    assert fast.breakdowns == {
        partition.index: next(b for b in breakdowns if b.candidate == winner)
        for partition, (winner, breakdowns) in zip(partitions, scalar)
    }
