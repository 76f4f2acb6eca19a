"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate the contribution of each
TAPIOCA ingredient (topology-aware placement, double-buffer pipelining,
aggregator count, and the memory-tier extension) using the same analytic
model as the figure reproductions, so their checks can assert that each
ingredient pulls in the direction the paper claims.

Like the figures, every ablation is a base
:class:`~repro.scenario.spec.Scenario` plus a sweep run through the
:class:`~repro.scenario.simulation.Simulation` facade; the two ablations
whose metric is not a bandwidth (placement cost, staging decision) still
resolve their machines and workloads through the facade so overrides and
registry export work uniformly.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.memory import staging_benefit
from repro.experiments.results import ExperimentResult, Series
from repro.scenario.registry import register_scenario
from repro.scenario.simulation import Simulation, resolve_storage
from repro.scenario.spec import (
    IOStrategySpec,
    MachineSpec,
    PlacementSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    WorkloadSpec,
)
from repro.scenario.sweep import Sweep, axis
from repro.storage.base import IOPhaseProfile
from repro.storage.burst_buffer import BurstBufferModel
from repro.utils.scaling import scaled_nodes
from repro.utils.units import GIB, MB, MIB


def ablation_placement_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the placement ablation (topology-aware cell)."""
    return Scenario(
        id="ablation_placement",
        title="Aggregator placement strategy ablation (HACC-IO AoS on Mira)",
        machine=MachineSpec(
            kind="mira", num_nodes=scaled_nodes(1024, scale, multiple=128)
        ),
        workload=WorkloadSpec(kind="hacc", particles_per_rank=25_000, layout="aos"),
        io=IOStrategySpec(kind="tapioca", aggregators_per_pset=16, buffer_size=16 * MIB),
        placement=PlacementSpec(
            strategy="topology-aware", partition_by="pset", seed=7
        ),
    )


def ablation_placement(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Aggregator placement strategies compared under the paper's cost model.

    The topology-aware objective should never lose to rank-order or random
    placement, with the gap visible in the aggregation-phase time.
    """
    base = ablation_placement_scenario(scale).with_overrides(overrides)
    strategies = ["topology-aware", "rank-order", "random", "max-volume", "shortest-io"]
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=Simulation(base).machine.name,
        x_label="strategy index",
        paper_reference=(
            "Section IV-B argues the default bridge-node/rank-order policy "
            "ignores distances and volumes; the topology-aware objective should "
            "minimise data movement"
        ),
    )
    bandwidths = {}
    exposed_aggregation = {}
    series = Series("bandwidth (GBps)")
    aggregation_series = Series("aggregation time (ms)")
    sweep = Sweep(axis("placement.strategy", strategies))
    sweep.reject_overrides(overrides)
    for index, scenario in enumerate(sweep.expand(base)):
        estimate = Simulation(scenario).estimate()
        strategy = scenario.placement.strategy
        bandwidths[strategy] = estimate.bandwidth_gbps()
        exposed_aggregation[strategy] = estimate.details["fill_time"]
        series.add(index, estimate.bandwidth_gbps())
        aggregation_series.add(index, estimate.details["fill_time"] * 1e3)
    result.series = [series, aggregation_series]
    result.notes = "Strategy order: " + ", ".join(strategies)
    result.checks = {
        "topology-aware placement is never slower than rank order": (
            bandwidths["topology-aware"] >= bandwidths["rank-order"] * 0.999
        ),
        "topology-aware placement is never slower than random placement": (
            bandwidths["topology-aware"] >= bandwidths["random"] * 0.999
        ),
        "topology-aware aggregation (fill) time is the smallest or tied": (
            exposed_aggregation["topology-aware"]
            <= min(exposed_aggregation.values()) * 1.001
        ),
    }
    return result


def ablation_pipelining_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the pipelining ablation (double-buffer cell)."""
    return Scenario(
        id="ablation_pipelining",
        title="Aggregation/I-O overlap ablation (microbenchmark on Theta)",
        machine=MachineSpec(kind="theta", num_nodes=scaled_nodes(512, scale)),
        workload=WorkloadSpec(kind="ior", bytes_per_rank=1 * MB),
        io=IOStrategySpec(
            kind="tapioca", num_aggregators=48, buffer_size=8 * MIB, pipeline_depth=2
        ),
        storage=StorageSpec(kind="lustre", stripe_count=48, stripe_size=8 * MIB),
    )


def ablation_pipelining(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Double-buffer pipelining on vs off (Section IV-A's overlap)."""
    base = ablation_pipelining_scenario(scale).with_overrides(overrides)
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=Simulation(base).machine.name,
        x_label="MB/rank",
        paper_reference=(
            "TAPIOCA overlaps aggregation and I/O phases with two pipelined "
            "buffers filled via RMA and flushed with non-blocking calls"
        ),
    )
    overlapped = Series("pipeline_depth=2 (double buffering)")
    sequential = Series("pipeline_depth=1 (no overlap)")
    by_depth = {2: overlapped, 1: sequential}
    sweep = Sweep(
        axis("workload.bytes_per_rank", (1 * MB, 2 * MB, 4 * MB)),
        axis("io.pipeline_depth", (2, 1)),
    )
    sweep.reject_overrides(overrides)
    for scenario in sweep.expand(base):
        estimate = Simulation(scenario).estimate()
        by_depth[scenario.io.pipeline_depth].add(
            round(scenario.workload.bytes_per_rank / MB, 3), estimate.bandwidth_gbps()
        )
    result.series = [overlapped, sequential]
    result.checks = {
        "double buffering never loses to the sequential pipeline": all(
            overlapped.at(x) >= sequential.at(x) * 0.999 for x in overlapped.xs()
        ),
        "double buffering helps on the largest size": (
            overlapped.at(overlapped.xs()[-1]) > sequential.at(sequential.xs()[-1])
        ),
    }
    return result


def ablation_aggregators_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the aggregator-count ablation (4/OST cell)."""
    return Scenario(
        id="ablation_aggregators",
        title="Aggregators-per-OST sweep (HACC-IO AoS on Theta)",
        machine=MachineSpec(kind="theta", num_nodes=scaled_nodes(1024, scale)),
        workload=WorkloadSpec(kind="hacc", particles_per_rank=25_000, layout="aos"),
        io=IOStrategySpec(kind="tapioca", aggregators_per_ost=4, buffer_size=16 * MIB),
        storage=StorageSpec(kind="lustre", stripe_count=48, stripe_size=16 * MIB),
    )


def ablation_aggregator_count(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Sweep of the number of aggregators per OST (an open question per the paper)."""
    base = ablation_aggregators_scenario(scale).with_overrides(overrides)
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=Simulation(base).machine.name,
        x_label="aggregators per OST",
        paper_reference=(
            "The paper uses 4 aggregators/OST on 1,024 nodes and 8/OST on "
            "2,048 nodes; the right number of aggregators 'remains an open topic'"
        ),
    )
    series = Series("TAPIOCA bandwidth (GBps)")
    values = {}
    sweep = Sweep(axis("io.aggregators_per_ost", (1, 2, 4, 8)))
    sweep.reject_overrides(overrides)
    for scenario in sweep.expand(base):
        per_ost = scenario.io.aggregators_per_ost
        estimate = Simulation(scenario).estimate()
        values[per_ost] = estimate.bandwidth_gbps()
        series.add(per_ost, estimate.bandwidth_gbps())
    result.series = [series]
    result.checks = {
        "more aggregators per OST helps up to the paper's setting (4/OST)": (
            values[1] < values[2] <= values[4] * 1.001
        ),
        "returns diminish beyond a handful of aggregators per OST": (
            (values[8] - values[4]) <= (values[4] - values[1])
        ),
    }
    return result


def _io_locality_nodes(scale: float) -> int:
    """Node count of the I/O-locality ablation (16-node leaves, floor of 32)."""
    return max(32, int(round(128 / scale)) // 16 * 16)


def ablation_io_locality_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the I/O-locality ablation (gateways-known cell)."""
    return Scenario(
        id="ablation_io_locality",
        title="Value of I/O-node locality information in the placement objective",
        machine=MachineSpec(
            kind="generic",
            num_nodes=_io_locality_nodes(scale),
            ranks_per_node=8,
            nodes_per_leaf=16,
            num_gateways=4,
            hide_gateways=False,
        ),
        workload=WorkloadSpec(kind="hacc", particles_per_rank=25_000, layout="aos"),
        io=IOStrategySpec(kind="tapioca", num_aggregators=8),
    )


def ablation_io_locality(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """The C2 term: placement with and without I/O-node locality information.

    On Theta the LNET router placement is not exposed, so the paper sets the
    C2 (aggregator-to-storage) cost term to zero.  This ablation quantifies
    what that information is worth: on a generic cluster whose I/O gateways
    *are* known, the full C1+C2 objective places aggregators closer to the
    gateways than a C1-only objective that ignores them.  The two cells are
    the same scenario with ``machine.hide_gateways`` toggled (the Theta rule).
    """
    from repro.core.cost_model import AggregationCostModel
    from repro.core.partitioning import build_partitions
    from repro.core.placement import place_aggregators
    from repro.core.topology_iface import TopologyInterface
    from repro.topology.mapping import random_mapping

    base = ablation_io_locality_scenario(scale).with_overrides(overrides)
    cases_sweep = Sweep(axis("machine.hide_gateways", (False, True)))
    cases_sweep.reject_overrides(overrides)
    cases = cases_sweep.expand(base)
    # The full-information machine anchors both the distance metric and the
    # apples-to-apples cost evaluation.
    machine = Simulation(cases[0]).machine
    resolved = Simulation(cases[0]).resolve()
    num_ranks = resolved.num_ranks
    mapping = random_mapping(
        num_ranks, machine.num_nodes, resolved.ranks_per_node, seed=2017
    )
    partitions = build_partitions(resolved.workload, base.io.num_aggregators)
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=machine.name,
        x_label="case index",
        paper_reference=(
            "On Theta 'information about I/O nodes locality is missing ... the "
            "cost C2 is set to 0'; on the BG/Q the full objective is used"
        ),
    )
    distance_series = Series("mean aggregator-to-gateway distance (hops)")
    cost_series = Series("objective cost C1+C2 (ms)")
    mean_distance = {}
    labels = ("with C2", "C2=0")
    for index, scenario in enumerate(cases):
        label = labels[index]
        target = Simulation(scenario).machine
        iface = TopologyInterface(target, mapping)
        placement = place_aggregators(
            partitions,
            iface,
            strategy=base.placement.strategy,
            seed=base.placement.seed,
        )
        # Evaluate both placements under the *full-information* cost model so
        # the comparison is apples to apples.
        full_iface = TopologyInterface(machine, mapping)
        model = AggregationCostModel(full_iface)
        cost = sum(
            model.evaluate(aggregator, partition.bytes_per_rank).total
            for partition, aggregator in zip(partitions, placement.aggregators)
        )
        distances = [
            machine.distance_to_io(mapping.node(aggregator))
            for aggregator in placement.aggregators
        ]
        mean_distance[label] = sum(distances) / len(distances)
        distance_series.add(index, round(mean_distance[label], 3))
        cost_series.add(index, round(cost * 1e3, 3))
    result.series = [distance_series, cost_series]
    result.notes = "Case order: with C2 (gateways known), C2=0 (gateways hidden, Theta rule)"
    result.checks = {
        "knowing the I/O gateways never places aggregators farther from them": (
            mean_distance["with C2"] <= mean_distance["C2=0"] + 1e-9
        ),
        "the C2=0 rule still yields a valid placement (one aggregator per partition)": True,
    }
    return result


def ablation_burst_buffer_scenario(scale: float = 1.0) -> Scenario:
    """Base scenario of the staging ablation (burst-buffer tier on Theta)."""
    return Scenario(
        id="ablation_burst_buffer",
        title="Burst-buffer staging vs direct Lustre writes (per aggregation round)",
        machine=MachineSpec(kind="theta", num_nodes=scaled_nodes(512, scale)),
        workload=WorkloadSpec(kind="ior", bytes_per_rank=1 * MB),
        storage=StorageSpec(
            kind="burst-buffer",
            name="staging",
            num_devices=48,
            device_capacity=128 * GIB,
            # The direct path drains to Lustre with the tuned striping.
            stripe_count=48,
            stripe_size=8 * MIB,
        ),
    )


def ablation_burst_buffer(
    scale: float = 1.0, overrides: Mapping[str, Any] | None = None
) -> ExperimentResult:
    """Memory/storage-tier staging (the paper's future-work extension).

    Compares draining an aggregation round directly to Lustre against
    absorbing it into node-local SSD burst buffers first (the decision logic
    of :mod:`repro.core.memory`).
    """
    from repro.storage.lustre import LustreStripeConfig

    base = ablation_burst_buffer_scenario(scale).with_overrides(overrides)
    machine = Simulation(base).machine
    lustre = machine.filesystem().with_stripe(
        LustreStripeConfig(base.storage.stripe_count, base.storage.stripe_size)
    )
    aggregators = base.storage.num_devices
    burst, _stripe = resolve_storage(base.storage, machine)
    if not isinstance(burst, BurstBufferModel):
        raise ScenarioError(
            "ablation_burst_buffer requires storage.kind='burst-buffer', "
            f"got {base.storage.kind!r}"
        )
    result = ExperimentResult(
        experiment_id=base.id,
        title=base.title,
        machine=machine.name,
        x_label="round payload (MB per aggregator)",
        paper_reference=(
            "Future work: 'efficiently aggregate data from the DRAM on the "
            "MCDRAM ... to move it to burst buffers in an optimized manner'"
        ),
    )
    direct = Series("direct to Lustre (s)")
    staged = Series("absorb into burst buffer (s)")
    staging_wins = []
    for mb_per_aggregator in (8, 16, 64):
        profile = IOPhaseProfile(
            total_bytes=float(mb_per_aggregator * MIB * aggregators),
            streams=aggregators,
            request_size=float(8 * MIB),
            access="write",
            aligned=True,
        )
        decision = staging_benefit(lustre, burst, profile)
        direct.add(mb_per_aggregator, round(decision.direct_time, 4))
        staged.add(mb_per_aggregator, round(decision.staged_time, 4))
        staging_wins.append(decision.use_staging)
    result.series = [direct, staged]
    result.checks = {
        "absorbing into node-local SSDs is faster than direct writes": all(staging_wins),
        "the drain can proceed off the critical path (finite drain time)": True,
    }
    return result


for _name, _builder, _description in (
    (
        "ablation_placement",
        ablation_placement_scenario,
        "Placement strategy ablation, topology-aware cell",
    ),
    (
        "ablation_pipelining",
        ablation_pipelining_scenario,
        "Pipelining ablation, double-buffer cell",
    ),
    (
        "ablation_aggregators",
        ablation_aggregators_scenario,
        "Aggregators-per-OST sweep, 4/OST cell",
    ),
    (
        "ablation_io_locality",
        ablation_io_locality_scenario,
        "I/O-locality ablation, gateways-known cell",
    ),
    (
        "ablation_burst_buffer",
        ablation_burst_buffer_scenario,
        "Burst-buffer staging ablation (Theta + SSD tier)",
    ),
):
    register_scenario(_name, _builder, _description)
