"""One resolver from a scenario job to its model plan.

A job must price the same alone and as the only job of a multi-job
scenario: the multi-job slowdown is measured against that solo estimate.
Every machine kind × I/O kind × storage cell below resolves its single job
and its one-job ``MultiJobSpec`` twin through the same resolver and
``job_plan``, so the two estimates are bit-equal; a preset's ``as_tunable``
rewrite (explicit hint fields plus a ``lustre`` storage spec carrying the
preset's striping) must price the same too.
"""

import itertools

import pytest

from repro.autotune.defaults import as_tunable
from repro.multijob.job import JobSpec
from repro.scenario.simulation import Simulation
from repro.scenario.spec import Scenario, ScenarioError
from repro.utils.units import MIB

MACHINES = {
    "theta": {"kind": "theta", "num_nodes": 32},
    "mira": {"kind": "mira", "num_nodes": 32, "pset_size": 16},
    "generic": {"kind": "generic", "num_nodes": 32},
}
IO_KINDS = ("tapioca", "mpiio", "mpiio-baseline", "mpiio-tuned")
STORAGES = {
    "machine-default": {"kind": "machine-default"},
    "lustre": {"kind": "lustre", "stripe_count": 4, "stripe_size": MIB, "ost_start": 3},
}
#: Mira's file system is GPFS: a ``lustre`` storage spec is refused there.
CELLS = [
    cell
    for cell in itertools.product(MACHINES, IO_KINDS, STORAGES)
    if cell[0] != "mira" or cell[2] != "lustre"
]


def _single(machine: str, io: str, storage: str) -> Scenario:
    return Scenario.from_dict(
        {
            "id": f"{machine}-{io}-{storage}",
            "machine": MACHINES[machine],
            "workload": {"kind": "ior", "bytes_per_rank": MIB},
            "io": {"kind": io},
            "storage": STORAGES[storage],
        }
    )


def _as_one_job(scenario: Scenario) -> Scenario:
    """The single job of ``scenario`` as the only job of a multi-job one."""
    machine = Simulation(scenario).machine
    payload = scenario.to_dict()
    job = {
        "name": "solo",
        "num_nodes": machine.num_nodes,
        "ranks_per_node": machine.default_ranks_per_node,
        "workload": payload["workload"],
        "io": payload["io"],
        "placement": payload["placement"],
        "storage": payload["storage"],
    }
    return Scenario.from_dict(
        {
            "id": scenario.id + "-multijob",
            "machine": payload["machine"],
            "multijob": {"jobs": [job]},
        }
    )


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_single_job_prices_as_its_one_job_multijob_twin(cell):
    scenario = _single(*cell)
    elapsed = Simulation(scenario).estimate().elapsed
    (job,) = Simulation(_as_one_job(scenario)).multijob_runtime().jobs
    assert elapsed.hex() == job.isolated.elapsed.hex()
    if scenario.io.kind.startswith("mpiio-"):
        tunable = Simulation(as_tunable(scenario)).estimate().elapsed
        assert elapsed.hex() == tunable.hex()


@pytest.mark.parametrize("io", IO_KINDS)
def test_a_lustre_stripe_on_a_machine_without_lustre_is_refused(io):
    """The ``mira × lustre`` cells: the single job and its one-job twin are
    both refused, naming Mira's GPFS, instead of dropping the stripe."""
    scenario = _single("mira", io, "lustre")
    with pytest.raises(ScenarioError, match="has a GPFS file system"):
        Simulation(scenario).estimate()
    with pytest.raises(ScenarioError, match="has a GPFS file system"):
        Simulation(_as_one_job(scenario)).multijob_runtime()


def test_single_and_multijob_resolve_to_the_same_spec():
    """``resolve()`` is the one-job case of ``job_specs()``: only the name
    differs."""
    scenario = _single("theta", "tapioca", "lustre")
    single = Simulation(scenario).resolve()
    (multi,) = Simulation(_as_one_job(scenario)).job_specs()
    assert isinstance(single, JobSpec)
    assert single.name == scenario.id and multi.name == "solo"
    for field in ("num_nodes", "ranks_per_node", "method", "config", "hints", "stripe"):
        assert getattr(single, field) == getattr(multi, field), field
    assert single.filesystem is multi.filesystem is None


def test_storage_stripe_applies_unless_the_hints_stripe_the_file():
    """A preset whose hints leave striping open takes the storage spec's
    stripe; one whose hints stripe the file keeps the hints' stripe."""
    generic = Simulation(_single("generic", "mpiio-baseline", "lustre"))
    default = Simulation(_single("generic", "mpiio-baseline", "machine-default"))
    assert generic.estimate().elapsed != default.estimate().elapsed
    theta = Simulation(_single("theta", "mpiio-baseline", "lustre"))
    theta_default = Simulation(_single("theta", "mpiio-baseline", "machine-default"))
    assert theta.estimate().elapsed == theta_default.estimate().elapsed
