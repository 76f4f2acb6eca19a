"""Cached/batched routing and cost results equal their uncached oracles.

The topologies memoise ``distance``/``route``, answer batch queries with
vectorised kernels, and the placement cost model evaluates whole candidate
sets from per-node-pair arrays.  These property-style tests pin each of
them bit for bit to an oracle — the uncached ``_distance_impl`` /
``_route_impl`` and per-candidate :meth:`AggregationCostModel.evaluate`
(through ``tests/reference/cost_model.py``) — over randomised node pairs on
all three topologies, and check that cache state never leaks across
machine instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cost_model import AggregationCostModel
from repro.core.partitioning import build_partitions
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


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_batch_queries_equal_scalar_loops(topology):
    rng = random.Random(7)
    n = topology.num_nodes
    nodes = [rng.randrange(n) for _ in range(min(n, 128))]
    for _ in range(5):
        src = rng.randrange(n)
        distances = topology.distances_from(src, nodes)
        bandwidths = topology.path_bandwidths_from(src, nodes)
        routes = topology.routes_from(src, nodes)
        assert [int(d) for d in distances] == [
            topology._distance_impl(src, m) for m in nodes
        ]
        assert [float(b) for b in bandwidths] == [
            _path_bandwidth_impl(topology, src, m) for m in nodes
        ]
        assert routes == [topology._route_impl(src, m) for m in nodes]


@pytest.mark.parametrize("topology", _topologies(), ids=lambda t: t.name)
def test_pair_metrics_equal_scalar_loops(topology):
    rng = random.Random(13)
    nodes = rng.sample(range(topology.num_nodes), min(topology.num_nodes, 40))
    hops, bandwidths = topology.pair_metrics(nodes)
    assert hops.tolist() == [
        [topology._distance_impl(a, b) for b in nodes] for a in nodes
    ]
    assert bandwidths.tolist() == [
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


@pytest.mark.parametrize("machine_cls", [ThetaMachine, MiraMachine])
def test_best_candidate_batched_equals_scalar(machine_cls):
    """Winner and every breakdown equal per-candidate evaluation exactly."""
    from repro.topology.mapping import random_mapping

    machine = machine_cls(64)
    rng = random.Random(11)
    num_ranks = 64 * 4
    mapping = random_mapping(num_ranks, machine.num_nodes, 4, seed=5)
    iface = TopologyInterface(machine, mapping)
    model = AggregationCostModel(iface)
    for trial in range(5):
        ranks = rng.sample(range(num_ranks), 40)
        volumes = {rank: rng.randrange(1, 1 << 24) for rank in ranks}
        candidates = list(volumes)
        fast_winner, fast_breakdowns = model.best_candidate(candidates, volumes)
        scalar_winner, scalar_breakdowns = reference.best_candidate(
            model, candidates, volumes
        )
        assert fast_winner == scalar_winner
        assert fast_breakdowns == scalar_breakdowns


@pytest.mark.parametrize("num_candidates", [1, 3, 40])
def test_best_candidate_c1_is_a_sequential_sum(num_candidates):
    """C1 adds the producers' terms left to right, as evaluate() does.

    The volumes span twelve orders of magnitude, so a pairwise (``np.sum``)
    reduction of the same terms rounds differently; the batched C1 must
    still equal the per-candidate oracle exactly.
    """
    from repro.topology.mapping import block_mapping

    machine = MiraMachine(64)
    iface = TopologyInterface(machine, block_mapping(256, 64, 4))
    model = AggregationCostModel(iface)
    rng = random.Random(3)
    producers = rng.sample(range(256), 200)
    volumes = {rank: rng.randrange(1, 1 << 40) for rank in producers}
    candidates = producers[:num_candidates]
    candidate = candidates[0]
    latency = iface.get_latency()
    terms = [
        latency * iface.distance_between_ranks(rank, candidate)
        + float(nbytes) / iface.bandwidth_between_ranks(rank, candidate)
        for rank, nbytes in volumes.items()
        if rank != candidate
    ]
    sequential = 0.0
    for term in terms:
        sequential += term
    assert float(np.sum(np.asarray(terms))) != sequential
    _winner, breakdowns = model.best_candidate(candidates, volumes)
    _winner, expected = reference.best_candidate(model, candidates, volumes)
    assert breakdowns[0].aggregation == sequential
    assert [b.aggregation for b in breakdowns] == [b.aggregation for b in expected]
    assert breakdowns == expected


def test_best_candidate_batched_handles_candidates_outside_volumes():
    machine = ThetaMachine(16)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(64, 16, 4)
    iface = TopologyInterface(machine, mapping)
    model = AggregationCostModel(iface)
    volumes = {rank: 1024 * (rank + 1) for rank in range(8)}
    candidates = [0, 4, 40, 63]  # two candidates hold no data
    fast = model.best_candidate(candidates, volumes)
    assert fast == reference.best_candidate(model, candidates, volumes)


def test_best_candidate_empty_volumes_matches_scalar_path():
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(16, 8, 2)
    iface = TopologyInterface(machine, mapping)
    model = AggregationCostModel(iface)
    fast = model.best_candidate([1, 2], {})
    assert reference.best_candidate(model, [1, 2], {}) == fast
    assert fast[0] == 1
    assert all(b.total == 0.0 for b in fast[1])


def test_nodes_of_ranks_rejects_invalid_ranks_on_both_paths():
    from repro.perfmodel.common import build_context

    machine = ThetaMachine(8)
    workload = HACCIOWorkload(128, 1_000, layout="aos")
    context = build_context(machine, workload, ranks_per_node=16)
    # Above eight ranks the nodes come from one array gather, at or below
    # it from a per-rank lookup; both must reject out-of-range ranks.
    for valid in (list(range(40)), list(range(0, 128, 20))):
        assert context.nodes_of_ranks(valid) == sorted({r // 16 for r in valid})
        for bad in ([-1] + valid, valid + [context.num_ranks]):
            with pytest.raises(ValueError):
                context.nodes_of_ranks(bad)


def test_best_candidate_negative_volume_raises_on_both_paths():
    machine = ThetaMachine(8)
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(16, 8, 2)
    iface = TopologyInterface(machine, mapping)
    model = AggregationCostModel(iface)
    volumes = {0: 100, 1: -5, 2: 100}
    with pytest.raises(ValueError, match="volume of rank 1"):
        model.best_candidate([0, 2], volumes)
    with pytest.raises(ValueError, match="volume of rank 1"):
        reference.best_candidate(model, [0, 2], volumes)


@pytest.mark.parametrize("machine_cls", [ThetaMachine, MiraMachine])
@pytest.mark.parametrize("granularity", ["rank", "node"])
def test_place_aggregators_identical_on_both_paths(
    machine_cls, granularity, monkeypatch
):
    """Batched election == an election that evaluates candidates one by one."""
    machine = machine_cls(64)
    workload = HACCIOWorkload(64 * 4, 10_000, layout="aos")
    from repro.topology.mapping import block_mapping

    mapping = block_mapping(workload.num_ranks, machine.num_nodes, 4)
    iface = TopologyInterface(machine, mapping)
    partitions = build_partitions(workload, 6, machine=machine, mapping=mapping)
    fast = place_aggregators(
        partitions, iface, strategy="topology-aware", granularity=granularity
    )
    monkeypatch.setattr(
        AggregationCostModel, "best_candidate", reference.best_candidate
    )
    scalar = place_aggregators(
        partitions, iface, strategy="topology-aware", granularity=granularity
    )
    assert fast.aggregators == scalar.aggregators
    assert fast.breakdowns == scalar.breakdowns
