"""One owner decides the file a job writes.

:func:`repro.perfmodel.common.resolve_filesystem` picks the file system of
a job's file (its override, else the machine's), applies an explicit Lustre
stripe (refused on any other file system) and treats MPI I/O striping hints
as advisory (they restripe a Lustre file, keeping its ``ost_start``, and are
ignored elsewhere).  Every entry point below reaches that one rule, and the
multi-job ledger charges the OSTs the plan priced.
"""

import pytest

from repro.core.api import Tapioca
from repro.core.config import TapiocaConfig
from repro.iolib.hints import MPIIOHints
from repro.iolib.tuning import optimized_hints
from repro.machine.mira import MiraMachine
from repro.machine.theta import ThetaMachine
from repro.multijob import JobSpec, MultiJobRuntime
from repro.multijob.job import job_plan
from repro.perfmodel.batch import estimate_plans
from repro.perfmodel.common import resolve_filesystem
from repro.perfmodel.mpiio import MPIIOPlan, model_mpiio
from repro.perfmodel.tapioca import TapiocaPlan, model_tapioca
from repro.scenario.registry import get_scenario
from repro.scenario.simulation import Simulation, resolve_hints
from repro.scenario.spec import (
    IOStrategySpec,
    MachineSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    WorkloadSpec,
)
from repro.storage.burst_buffer import BurstBufferModel
from repro.storage.lustre import LustreStripeConfig
from repro.utils.units import MIB
from repro.workloads.ior import IORWorkload

STRIPE = LustreStripeConfig(stripe_count=4, stripe_size=1 << 20)
WORKLOAD = IORWorkload(512, 1_000_000)
CONFIG = TapiocaConfig(num_aggregators=8)
#: Striping hints, and the same hints without them (``cb_nodes`` is set, so
#: the striping factor does not change the aggregator count).
STRIPING_HINTS = MPIIOHints(cb_nodes=8, striping_factor=48, striping_unit=8 * MIB)
PLAIN_HINTS = MPIIOHints(cb_nodes=8)


def _mira() -> MiraMachine:
    return MiraMachine(32, pset_size=16)


def _spec(method="tapioca", stripe=None, hints=None, filesystem=None) -> JobSpec:
    return JobSpec(
        name="job",
        num_nodes=32,
        workload=WORKLOAD,
        method=method,
        config=CONFIG if method == "tapioca" else None,
        hints=hints,
        stripe=stripe,
        filesystem=filesystem,
    )


#: Each TAPIOCA entry point: ``(machine, stripe) -> elapsed``.
TAPIOCA_ENTRY_POINTS = {
    "model_tapioca": lambda machine, stripe: model_tapioca(
        machine, WORKLOAD, CONFIG, stripe=stripe
    ).elapsed,
    "TapiocaPlan": lambda machine, stripe: estimate_plans(
        machine, [TapiocaPlan(machine, WORKLOAD, CONFIG, stripe=stripe)]
    )[0].elapsed,
    "job_plan": lambda machine, stripe: estimate_plans(
        machine, [job_plan(machine, _spec(stripe=stripe))]
    )[0].elapsed,
    "MultiJobRuntime": lambda machine, stripe: MultiJobRuntime(
        machine, [_spec(stripe=stripe)]
    ).jobs[0].isolated.elapsed,
    "Tapioca": lambda machine, stripe: Tapioca(machine, CONFIG, stripe=stripe)
    .declare(WORKLOAD)
    .estimate_write()
    .elapsed,
}

#: Each MPI I/O entry point: ``(machine, hints, filesystem) -> elapsed``.
MPIIO_ENTRY_POINTS = {
    "model_mpiio": lambda machine, hints, filesystem: model_mpiio(
        machine, WORKLOAD, hints, filesystem=filesystem
    ).elapsed,
    "MPIIOPlan": lambda machine, hints, filesystem: estimate_plans(
        machine, [MPIIOPlan(machine, WORKLOAD, hints, filesystem=filesystem)]
    )[0].elapsed,
    "job_plan": lambda machine, hints, filesystem: estimate_plans(
        machine, [job_plan(machine, _spec("mpiio", hints=hints, filesystem=filesystem))]
    )[0].elapsed,
    "MultiJobRuntime": lambda machine, hints, filesystem: MultiJobRuntime(
        machine, [_spec("mpiio", hints=hints, filesystem=filesystem)]
    ).jobs[0].isolated.elapsed,
}


@pytest.mark.parametrize("entry", TAPIOCA_ENTRY_POINTS)
def test_an_explicit_stripe_on_mira_is_refused(entry):
    """The unstriped Mira estimate is unchanged; the striped one raises
    instead of returning it."""
    estimate = TAPIOCA_ENTRY_POINTS[entry]
    assert estimate(_mira(), None).hex() == "0x1.f24d4323a89a6p-3"
    with pytest.raises(ValueError, match="Lustre stripe.*GPFS file system"):
        estimate(_mira(), STRIPE)


def test_an_explicit_stripe_on_mira_is_a_scenario_error():
    scenario = Scenario.from_dict(
        {
            "id": "mira-lustre",
            "machine": {"kind": "mira", "num_nodes": 32, "pset_size": 16},
            "workload": {"kind": "ior", "bytes_per_rank": 1_000_000},
            "io": {"kind": "tapioca", "num_aggregators": 8},
            "storage": {"kind": "lustre", "stripe_count": 4, "stripe_size": 1 << 20},
        }
    )
    with pytest.raises(ScenarioError, match="Lustre stripe.*GPFS file system"):
        Simulation(scenario).estimate()


def _burst_buffer() -> BurstBufferModel:
    return BurstBufferModel(name="staging", num_devices=8)


@pytest.mark.parametrize("entry", MPIIO_ENTRY_POINTS)
@pytest.mark.parametrize("target", ("mira", "burst-buffer"))
def test_striping_hints_off_lustre_are_ignored(entry, target):
    estimate = MPIIO_ENTRY_POINTS[entry]
    if target == "mira":
        machine, filesystem = _mira(), None
    else:
        machine, filesystem = ThetaMachine(32), _burst_buffer()
    striped = estimate(machine, STRIPING_HINTS, filesystem)
    assert striped.hex() == estimate(machine, PLAIN_HINTS, filesystem).hex()


def test_the_plan_keeps_the_file_off_lustre_as_it_is():
    mira, theta, burst = _mira(), ThetaMachine(32), _burst_buffer()
    assert MPIIOPlan(mira, WORKLOAD, STRIPING_HINTS).context.filesystem is mira.filesystem()
    plan = MPIIOPlan(theta, WORKLOAD, optimized_hints(theta), filesystem=burst)
    assert plan.context.filesystem is burst


def test_the_tuned_preset_on_a_burst_buffer_prices_as_before():
    """``ablation_burst_buffer`` with the tuned preset puts 48-OST hints on a
    burst buffer: they are ignored, and the estimate keeps its value."""
    scenario = get_scenario("ablation_burst_buffer", scale=8).with_overrides(
        {"io.kind": "mpiio-tuned"}
    )
    assert Simulation(scenario).estimate().elapsed.hex() == "0x1.679d62d12dcfap-5"


@pytest.mark.parametrize(
    "hints,expected",
    [
        (MPIIOHints(), LustreStripeConfig(2, 8 * MIB, ost_start=5)),
        (
            MPIIOHints(striping_factor=48, striping_unit=8 * MIB),
            LustreStripeConfig(48, 8 * MIB, ost_start=5),
        ),
        (MPIIOHints(striping_factor=8), LustreStripeConfig(8, 1 * MIB, ost_start=5)),
        (MPIIOHints(striping_unit=4 * MIB), LustreStripeConfig(1, 4 * MIB, ost_start=5)),
    ],
)
def test_striping_hints_restripe_a_lustre_file_and_keep_its_ost_start(hints, expected):
    stripe = LustreStripeConfig(2, 8 * MIB, ost_start=5)
    filesystem = resolve_filesystem(ThetaMachine(32), stripe=stripe, hints=hints)
    assert filesystem.stripe == expected


def test_an_unstriped_file_is_the_machine_file_system_itself():
    machine = ThetaMachine(32)
    assert resolve_filesystem(machine) is machine.filesystem()
    assert resolve_filesystem(machine, hints=PLAIN_HINTS) is machine.filesystem()


@pytest.mark.parametrize("kind", ("mpiio", "mpiio-baseline", "mpiio-tuned"))
def test_the_ledger_charges_the_osts_the_plan_priced(kind):
    """Multi-job MPI I/O: each job's ``lustre-ost`` columns in the ledger are
    the OSTs of the file its plan priced, hints and ``ost_start`` included."""
    scenario = get_scenario("interference_theta_ost/disjoint", scale=8).with_overrides(
        {"multijob.jobs.0.io.kind": kind, "multijob.jobs.1.io.kind": kind}
    )
    runtime = Simulation(scenario).multijob_runtime()
    ledger = runtime.ledger
    for row, job in enumerate(runtime.jobs):
        charged = sorted(
            key[1]
            for column, key in enumerate(ledger.keys)
            if key[0] == "lustre-ost" and ledger.weight[row, column] > 0
        )
        priced = job_plan(runtime.machine, job.spec, job.mapping).context.filesystem
        assert charged == sorted(priced.ost_indices()), job.name


#: ``aggregators_per_ost=2`` on a 64-node Theta job: ``(storage, expected)``,
#: where ``expected`` is the estimate's aggregator count (2 per OST of the
#: machine's file under the storage spec's stripe) or ``ScenarioError``.
PER_OST_TABLE = {
    "default file (1 OST)": (StorageSpec(), 2),
    "lustre stripe of 8": (
        StorageSpec(kind="lustre", stripe_count=8, stripe_size=8 * MIB),
        16,
    ),
    "burst buffer": (StorageSpec(kind="burst-buffer"), 2),
    "256-node Mira": (None, ScenarioError),
}


@pytest.mark.parametrize("method", ("tapioca", "mpiio"))
@pytest.mark.parametrize("row", sorted(PER_OST_TABLE))
def test_aggregators_per_ost_is_one_rule_for_both_methods(method, row):
    """Plain MPI I/O reads ``io.aggregators_per_ost`` as TAPIOCA does,
    whatever storage spec the file has, and refuses it without Lustre."""
    storage, expected = PER_OST_TABLE[row]
    machine = (
        MachineSpec(kind="mira", num_nodes=256)
        if storage is None
        else MachineSpec(kind="theta", num_nodes=64)
    )
    scenario = Scenario(
        id="per_ost",
        machine=machine,
        workload=WorkloadSpec(kind="ior", bytes_per_rank=1 * MIB),
        io=IOStrategySpec(kind=method, aggregators_per_ost=2, buffer_size=8 * MIB),
        storage=storage or StorageSpec(),
    )
    if expected is ScenarioError:
        with pytest.raises(ScenarioError, match="aggregators_per_ost requires Lustre"):
            Simulation(scenario).estimate()
    else:
        assert Simulation(scenario).estimate().num_aggregators == expected


@pytest.mark.parametrize(
    ("stripe", "cb_nodes", "striping_factor"), [(None, 2, None), (LustreStripeConfig(8, MIB), 16, 8)]
)
def test_resolve_hints_turns_per_ost_counts_into_cb_nodes(stripe, cb_nodes, striping_factor):
    """The per-OST count reaches MPI I/O as an explicit ``cb_nodes``, not as
    a Cray hint that needs ``striping_factor`` to take effect."""
    io = IOStrategySpec(kind="mpiio", aggregators_per_ost=2)
    hints = resolve_hints(io, ThetaMachine(64), stripe)
    assert hints.cb_nodes == cb_nodes
    assert hints.aggregators_per_ost is None
    assert hints.striping_factor == striping_factor
