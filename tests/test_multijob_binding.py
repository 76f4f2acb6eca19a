"""The one-pass binding of a multi-job run equals binding every job alone.

:class:`~repro.multijob.runtime.MultiJobRuntime` binds all its jobs in one
pass (:func:`repro.multijob.job.bind_jobs`): one election over every
job's candidates, one routing of every job's flows shared by the flow
analysis and the ledger's link weights, and one fill-time pass.  Each job
must come out exactly as if its spec were bound on its own through
``model_tapioca``/``model_mpiio``, with the per-job link-weight function
the batch replaced (``tests/reference/demands.py``) as the oracle.
"""

import random

import pytest

from repro.core.config import PLACEMENT_STRATEGIES, TapiocaConfig
from repro.iolib.hints import MPIIOHints
from repro.machine.theta import ThetaMachine
from repro.multijob import JobSpec, MultiJobRuntime, NodeAllocator, bind_jobs
from repro.multijob.job import job_filesystem, storage_demand_weights
from repro.perfmodel.flows import MAX_SAMPLED_FLOWS, analyze_jobs
from repro.perfmodel.mpiio import model_mpiio
from repro.perfmodel.tapioca import model_tapioca
from repro.scenario import Scenario, Simulation
from repro.storage.burst_buffer import BurstBufferModel
from repro.topology.mapping import allocation_mapping
from repro.utils.units import MB, MIB
from repro.workloads.ior import IORWorkload
from reference import binding as reference_binding
from reference import demands as reference_demands
from reference import flows as reference_flows

POLICIES = ("contiguous", "scattered", "topology-aware")


def _job(rng: random.Random, index: int, *, mira: bool) -> dict:
    method = rng.choice(("tapioca", "tapioca", "mpiio"))
    workload = {
        "kind": rng.choice(("ior", "hacc")),
        "access": rng.choice(("write", "read")),
        "bytes_per_rank": rng.choice((1, 2, 4)) * 1_000_000,
        "particles_per_rank": rng.choice((5_000, 25_000)),
        "layout": rng.choice(("aos", "soa")),
    }
    io = {
        "kind": method,
        "num_aggregators": rng.choice((1, 2, 4, 8, 16)),
        "buffer_size": rng.choice((4, 8, 16)) * MIB,
    }
    if method == "mpiio" and rng.random() < 0.25:
        io["collective_buffering"] = False
    placement = {
        "strategy": PLACEMENT_STRATEGIES[index % len(PLACEMENT_STRATEGIES)],
        "seed": rng.randrange(1000),
    }
    if mira:
        storage = {"kind": rng.choice(("gpfs", "machine-default"))}
        if index % 2:
            placement["partition_by"] = "pset"
    else:
        draw = rng.random()
        if draw < 0.3:
            storage = {
                "kind": "burst-buffer",
                "name": f"bb{rng.randint(0, 1)}",
                "drain_gbps": rng.choice((1.0, 2.0)),
            }
        elif draw < 0.8:
            storage = {
                "kind": "lustre",
                "stripe_count": rng.choice((2, 4, 8)),
                "ost_start": rng.randrange(56),
            }
        else:
            storage = {"kind": "machine-default"}
    return {
        "name": f"J{index}",
        "num_nodes": rng.randint(1, 20),
        "ranks_per_node": rng.choice((4, 16)),
        "workload": workload,
        "io": io,
        "placement": placement,
        "storage": storage,
        "arrival_s": round(rng.uniform(0.0, 2.0), 3),
    }


def _payload(seed: int, *, mira: bool = False) -> dict:
    rng = random.Random(seed)
    machine = (
        {"kind": "mira", "num_nodes": 256, "pset_size": 64}
        if mira
        else {"kind": "theta", "num_nodes": 256}
    )
    return {
        "id": f"binding/{'mira' if mira else 'theta'}/{seed}",
        "machine": machine,
        "multijob": {
            "jobs": [_job(rng, index, mira=mira) for index in range(rng.randint(6, 10))],
            "allocation_policy": POLICIES[seed % len(POLICIES)],
        },
    }


PAYLOADS = [_payload(seed) for seed in range(6)] + [_payload(seed, mira=True) for seed in range(3)]


def _mix_payload(seed: int, num_jobs: int, policy: str) -> dict:
    """A contention_mix-shaped deck: ``num_jobs`` TAPIOCA jobs of 2-8 nodes
    on a shared 1024-node Theta, on narrow overlapping Lustre stripes or
    shared burst buffers."""
    rng = random.Random(seed)
    jobs = []
    for index in range(num_jobs):
        workload = {
            "kind": rng.choice(("ior", "hacc")),
            "access": rng.choice(("write", "read")),
            "bytes_per_rank": rng.choice((1, 2, 4, 8)) * 1_000_000,
            "particles_per_rank": rng.choice((5_000, 25_000, 50_000)),
            "layout": rng.choice(("aos", "soa")),
        }
        if rng.random() < 0.15:
            storage = {
                "kind": "burst-buffer",
                "name": f"bb{rng.randint(0, 1)}",
                "drain_gbps": rng.choice((1.0, 2.0, 4.0)),
            }
        else:
            storage = {
                "kind": "lustre",
                "stripe_count": rng.choice((2, 4, 8)),
                "ost_start": rng.randrange(56),
            }
        jobs.append(
            {
                "name": f"J{index}",
                "num_nodes": rng.randint(2, 8),
                "workload": workload,
                "io": {
                    "kind": "tapioca",
                    "num_aggregators": rng.choice((1, 2, 4, 8)),
                    "buffer_size": rng.choice((4, 8, 16)) * MIB,
                },
                "storage": storage,
                "arrival_s": round(rng.uniform(0.0, 3.0), 3),
            }
        )
    return {
        "id": f"binding/mix/{seed}",
        "machine": {"kind": "theta", "num_nodes": 1024},
        "multijob": {"jobs": jobs, "allocation_policy": policy},
    }


MIX_PAYLOADS = [_mix_payload(1, 64, "scattered"), _mix_payload(2, 96, "topology-aware")]


def _clear_flow_cache(machine) -> None:
    machine.topology.__dict__.pop("_fp_flow_cache", None)


def _bind_alone(machine, spec, nodes):
    """The spec bound on its own: mapping, single-job estimate, demands."""
    mapping = allocation_mapping(
        spec.num_ranks, nodes, num_nodes=machine.num_nodes, ranks_per_node=spec.ranks_per_node
    )
    if spec.method == "tapioca":
        isolated = model_tapioca(
            machine,
            spec.workload,
            spec.config,
            ranks_per_node=spec.ranks_per_node,
            filesystem=spec.filesystem,
            stripe=spec.stripe,
            mapping=mapping,
        )
    else:
        filesystem = spec.filesystem
        if filesystem is None and spec.stripe is not None:
            filesystem = job_filesystem(machine, spec)
        isolated = model_mpiio(
            machine,
            spec.workload,
            spec.hints or MPIIOHints(),
            ranks_per_node=spec.ranks_per_node,
            filesystem=filesystem,
            mapping=mapping,
        )
    senders = isolated.details.get("senders_by_aggregator", {})
    network, capacities = (
        reference_demands.network_demand_weights(machine, senders) if senders else ({}, {})
    )
    return isolated, storage_demand_weights(machine, spec, nodes), network, capacities


def _ledger_keys(machine, specs, alone) -> tuple:
    """Storage, then each job's links, then the override resources it names first."""
    access = "read" if all(spec.workload.access == "read" for spec in specs) else "write"
    keys = [resource.key for resource in machine.storage_resources(access)]
    for spec, (_, storage, _, capacities) in zip(specs, alone):
        keys += capacities
        if spec.filesystem is not None:
            keys += [
                resource.key
                for resource in spec.filesystem.shared_resources(access)
                if resource.key in storage and resource.key not in keys
            ]
    return tuple(dict.fromkeys(keys))


def _phases(estimate) -> list[str]:
    phases = estimate.phases
    return [
        float(value).hex()
        for value in (phases.aggregation, phases.io, phases.overhead, phases.overlapped)
    ]


def test_payloads_cover_every_binding_shape():
    specs = [
        spec for payload in PAYLOADS for spec in Simulation(Scenario.from_dict(payload)).job_specs()
    ]
    assert {spec.method for spec in specs} == {"tapioca", "mpiio"}
    tapioca = [spec.config for spec in specs if spec.method == "tapioca"]
    assert {config.placement for config in tapioca} == set(PLACEMENT_STRATEGIES)
    assert any(config.partition_by == "pset" for config in tapioca)
    assert any(spec.stripe is not None for spec in specs)
    assert any(isinstance(spec.filesystem, BurstBufferModel) for spec in specs)
    assert any(type(spec.filesystem).__name__ == "GPFSModel" for spec in specs)
    assert any(not spec.hints.collective_buffering for spec in specs if spec.method == "mpiio")


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda payload: payload["id"])
def test_one_pass_binding_equals_binding_each_spec_alone(payload):
    simulation = Simulation(Scenario.from_dict(payload))
    machine = simulation.machine
    specs = simulation.job_specs()
    policy = payload["multijob"]["allocation_policy"]
    _clear_flow_cache(machine)
    runtime = MultiJobRuntime(machine, specs, allocation_policy=policy)
    _clear_flow_cache(machine)
    alone = [_bind_alone(machine, spec, job.nodes) for spec, job in zip(specs, runtime.jobs)]
    for job, (isolated, storage, network, capacities) in zip(runtime.jobs, alone):
        assert _phases(job.isolated) == _phases(isolated), job.name
        assert job.isolated.bandwidth.hex() == isolated.bandwidth.hex()
        assert (job.isolated.num_aggregators, job.isolated.num_rounds) == (
            isolated.num_aggregators,
            isolated.num_rounds,
        )
        details = job.isolated.details
        assert details == isolated.details, job.name
        assert list(details) == list(isolated.details)
        assert list(details.get("senders_by_aggregator", {})) == list(
            isolated.details.get("senders_by_aggregator", {})
        )
        assert list(job.storage_weights.items()) == list(storage.items())
        assert list(job.network_weights.items()) == list(network.items())
        assert list(job.network_capacities.items()) == list(capacities.items())
    assert runtime.ledger.keys == _ledger_keys(machine, specs, alone)
    # Every flow analysis is memoised now: a second run binds the same jobs.
    again = MultiJobRuntime(machine, specs, allocation_policy=policy)
    assert [job.isolated.details for job in again.jobs] == [
        job.isolated.details for job in runtime.jobs
    ]
    assert again.ledger.keys == runtime.ledger.keys


@pytest.mark.parametrize("payload", PAYLOADS + MIX_PAYLOADS, ids=lambda payload: payload["id"])
def test_columnar_binding_equals_the_per_job_oracle(payload):
    """Every field of every bound job (floats as hex), its isolated rate,
    and the ledger's keys, capacities, demands, weights and bindable
    columns equal the per-job oracle's (``tests/reference/binding.py``)."""
    simulation = Simulation(Scenario.from_dict(payload))
    runtime = simulation.multijob_runtime()
    assert len(runtime.jobs) == len(payload["multijob"]["jobs"])
    assert reference_binding.mismatches(runtime) == []


def test_the_allocation_walk_equals_one_grant_per_job():
    """``allocate_all`` is one walk over the pool; granting the jobs one at
    a time gives each the same nodes."""
    for payload in PAYLOADS + MIX_PAYLOADS:
        simulation = Simulation(Scenario.from_dict(payload))
        specs = simulation.job_specs()
        runtime = MultiJobRuntime(
            simulation.machine, specs, allocation_policy=payload["multijob"]["allocation_policy"]
        )
        one_by_one = NodeAllocator(simulation.machine, payload["multijob"]["allocation_policy"])
        for spec, job in zip(specs, runtime.jobs):
            assert one_by_one.allocate(spec.name, spec.num_nodes).nodes == job.nodes


def _interleaved_jobs():
    """A 600-node job with 200 senders on each of its 3 aggregators (597
    remote flows), around a 16-node job scattered among its nodes.  The two
    samples differ: 128 of 199 per aggregator, 512 of 597 per job."""
    big = JobSpec(
        name="big",
        num_nodes=600,
        workload=IORWorkload(600 * 2, 1 * MB),
        ranks_per_node=2,
        config=TapiocaConfig(num_aggregators=3, buffer_size=8 * MIB),
    )
    small = JobSpec(
        name="small",
        num_nodes=16,
        workload=IORWorkload(16 * 2, 1 * MB),
        ranks_per_node=2,
        config=TapiocaConfig(num_aggregators=2, buffer_size=8 * MIB),
    )
    scattered = list(range(5, 616, 38))[:16]
    return [big, small], [[n for n in range(616) if n not in scattered], scattered]


def test_sampling_caps_are_row_selections_of_the_shared_flow_table():
    machine = ThetaMachine(1024)
    specs, allocations = _interleaved_jobs()
    _clear_flow_cache(machine)
    jobs = bind_jobs(machine, specs, allocations)
    patterns = [job.isolated.details["senders_by_aggregator"] for job in jobs]
    big = patterns[0]
    assert min(len(senders) for senders in big.values()) > 128
    remote = sum(s != a for a, senders in big.items() for s in senders)
    assert remote > MAX_SAMPLED_FLOWS
    _clear_flow_cache(machine)
    analyses, loads = analyze_jobs(machine.topology, patterns, loads=True)
    for job, pattern, analysis, load in zip(jobs, patterns, analyses, loads):
        reference = reference_flows.analyze_flows(machine.topology, pattern)
        for field in ("aggregator_contention", "aggregator_distance", "aggregator_min_bandwidth"):
            assert list(getattr(analysis, field).items()) == list(
                getattr(reference, field).items()
            ), (job.name, field)
        assert job.isolated.details["contention"] == reference.mean_contention()
        weights, capacities = reference_demands.network_demand_weights(machine, pattern)
        assert list(job.network_weights.items()) == list(weights.items())
        assert list(job.network_capacities.items()) == list(capacities.items())
        remote = sum(s != a for a, senders in pattern.items() for s in senders)
        assert load.flows == min(MAX_SAMPLED_FLOWS, remote) > 0


def test_one_route_links_call_per_runtime(monkeypatch):
    machine = ThetaMachine(1024)
    specs, allocations = _interleaved_jobs()
    topology_class = type(machine.topology)
    route_links = topology_class.route_links
    calls = []

    def counting(topology, src, dst):
        calls.append(len(src))
        return route_links(topology, src, dst)

    monkeypatch.setattr(topology_class, "route_links", counting)
    specs.append(
        JobSpec(
            name="mpiio",
            num_nodes=8,
            workload=IORWorkload(8 * 2, 1 * MB),
            ranks_per_node=2,
            method="mpiio",
            hints=MPIIOHints(cb_nodes=2),
        )
    )
    _clear_flow_cache(machine)
    MultiJobRuntime(machine, specs, allocation_policy="scattered")
    assert len(calls) == 1
    # With every analysis memoised, the one call routes only the ledger rows.
    MultiJobRuntime(machine, specs, allocation_policy="scattered")
    assert len(calls) == 2 and calls[1] < calls[0]
