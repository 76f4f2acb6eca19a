"""The simulation facade: resolve a scenario and run it.

:class:`Simulation` turns the pure-data :class:`~repro.scenario.spec.Scenario`
tree into the concrete objects of the existing layers — machine models,
workloads, MPI-IO hint bundles, TAPIOCA configurations, file-system
overrides, multi-job runtimes — and runs the appropriate performance model.
Every registered experiment, every sweep, and the ``repro scenario run`` CLI
go through this one resolution path, so a scenario JSON reproduces exactly
the estimate its originating experiment computed.

Every job has one resolver, :func:`resolve_job`, to a
:class:`~repro.multijob.job.JobSpec`: the single job of a single-job
scenario (:meth:`Simulation.resolve`, the whole machine) and each job of a
multi-job one (:meth:`Simulation.job_specs`).  A single-job estimate is the
one-plan call of :func:`~repro.perfmodel.batch.estimate_plans` on the
spec's :func:`~repro.multijob.job.job_plan`, so a job prices the same alone
as the isolated baseline of its multi-job slowdown.  One striping rule
follows: a ``lustre`` storage spec's stripe applies to the job's file unless
the MPI I/O hints stripe it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.config import TapiocaConfig
from repro.iolib.hints import MPIIOHints
from repro.iolib.tuning import baseline_hints, optimized_hints
from repro.machine.generic import GenericClusterMachine
from repro.machine.machine import Machine
from repro.machine.mira import MIRA_PSET_SIZE, MiraMachine
from repro.machine.theta import ThetaMachine
from repro.obs import span as obs_span
from repro.perfmodel.batch import estimate_plans, memoised_aggregations
from repro.perfmodel.results import IOEstimate
from repro.scenario.spec import (
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    PlacementSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
)
from repro.storage.burst_buffer import BurstBufferModel
from repro.storage.gpfs import GPFSModel
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.utils.units import MB, gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ExperimentResult
    from repro.multijob.job import JobSpec


class HiddenGatewayCluster(GenericClusterMachine):
    """A generic cluster pretending (like Theta) not to know its gateways.

    The I/O-locality ablation compares placement with and without gateway
    information; this variant hides the gateways so the placement objective
    drops its C2 term, exactly as on Theta.
    """

    def io_gateways(self):  # noqa: D102 - see class docstring
        return []

    def io_gateway_for_node(self, node):  # noqa: D102
        self.topology.validate_node(node)
        return None


def resolve_machine(spec: MachineSpec) -> Machine:
    """The concrete machine model a :class:`MachineSpec` describes.

    Machines are memoised per spec: a sweep expanding one base scenario into
    dozens of grid points builds the (read-only) topology once.
    """
    return _cached_machine(spec)


@lru_cache(maxsize=64)
def _cached_machine(spec: MachineSpec) -> Machine:
    if spec.kind == "mira":
        return MiraMachine(
            spec.num_nodes, pset_size=spec.pset_size or MIRA_PSET_SIZE
        )
    if spec.kind == "theta":
        return ThetaMachine(spec.num_nodes)
    cls = HiddenGatewayCluster if spec.hide_gateways else GenericClusterMachine
    return cls(
        spec.num_nodes,
        nodes_per_leaf=spec.nodes_per_leaf,
        num_gateways=spec.num_gateways,
    )


def resolve_storage(
    spec: StorageSpec, machine: Machine
) -> tuple[object | None, LustreStripeConfig | None]:
    """``(filesystem_override, stripe)`` for a storage spec on a machine.

    Exactly one of the two is non-``None`` for non-default kinds: Lustre
    scenarios restripe the machine's own file system (via the ``stripe``
    argument of the performance models), so a machine whose file system is
    not Lustre refuses them, while GPFS and burst-buffer scenarios
    substitute a file-system model.
    """
    if spec.kind == "machine-default":
        return None, None
    if spec.kind == "lustre":
        filesystem = machine.filesystem()
        if not isinstance(filesystem, LustreModel):
            raise ScenarioError(
                f"storage kind 'lustre' stripes a Lustre file; machine "
                f"{machine.name!r} has a {filesystem.name} file system"
            )
        return None, LustreStripeConfig(
            stripe_count=spec.stripe_count,
            stripe_size=spec.stripe_size,
            ost_start=spec.ost_start % filesystem.num_osts,
        )
    if spec.kind == "gpfs":
        num_psets = getattr(machine, "num_psets", None)
        if num_psets is None:
            raise ScenarioError(
                f"storage kind 'gpfs' requires a Mira-like machine with Psets, "
                f"got {machine.name!r}"
            )
        return GPFSModel.for_mira_psets(num_psets, subfiling=spec.subfiling), None
    overrides: dict[str, object] = {
        "name": spec.name,
        "num_devices": spec.num_devices,
    }
    if spec.device_capacity is not None:
        overrides["device_capacity"] = spec.device_capacity
    if spec.drain_gbps is not None:
        overrides["drain_bandwidth"] = gbps(spec.drain_gbps)
    return BurstBufferModel(**overrides), None  # type: ignore[arg-type]


def _resolve_aggregators(
    spec: IOStrategySpec, machine: Machine, stripe: LustreStripeConfig | None
) -> int | None:
    """The explicit aggregator count a spec implies (``None`` = platform default)."""
    if spec.num_aggregators is not None:
        return spec.num_aggregators
    if spec.aggregators_per_pset is not None:
        num_psets = getattr(machine, "num_psets", None)
        if num_psets is None:
            raise ScenarioError(
                "aggregators_per_pset requires a Mira-like machine with Psets"
            )
        return spec.aggregators_per_pset * num_psets
    if spec.aggregators_per_ost is not None and spec.kind == "tapioca":
        if stripe is None:
            filesystem = machine.filesystem()
            if not isinstance(filesystem, LustreModel):
                raise ScenarioError(
                    "aggregators_per_ost requires Lustre storage (a 'lustre' "
                    "storage spec or a Lustre machine)"
                )
            stripe = filesystem.stripe
        return spec.aggregators_per_ost * stripe.stripe_count
    return None


def resolve_tapioca_config(
    io: IOStrategySpec,
    placement: PlacementSpec,
    machine: Machine,
    stripe: LustreStripeConfig | None,
) -> TapiocaConfig:
    """The :class:`TapiocaConfig` an I/O + placement spec pair describes."""
    return TapiocaConfig(
        num_aggregators=_resolve_aggregators(io, machine, stripe),
        buffer_size=io.buffer_size,
        pipeline_depth=io.pipeline_depth,
        placement=placement.strategy,
        partition_by=placement.partition_by,
        aggregation_tier=io.aggregation_tier,
        shared_locks=io.shared_locks,
        placement_seed=placement.seed,
    )


def resolve_hints(
    io: IOStrategySpec, machine: Machine, stripe: LustreStripeConfig | None
) -> MPIIOHints:
    """The MPI-IO hint bundle an I/O spec describes.

    The two presets reproduce the paper's per-platform Section V-B
    configurations; plain ``"mpiio"`` builds hints from the spec fields,
    taking striping from the storage spec's stripe.
    """
    if io.kind == "mpiio-baseline":
        return baseline_hints(machine)
    if io.kind == "mpiio-tuned":
        return optimized_hints(machine)
    return MPIIOHints(
        cb_nodes=(
            None
            if io.aggregators_per_ost is not None
            else _resolve_aggregators(io, machine, stripe)
        ),
        cb_buffer_size=io.buffer_size,
        collective_buffering=io.collective_buffering,
        striping_factor=stripe.stripe_count if stripe is not None else None,
        striping_unit=stripe.stripe_size if stripe is not None else None,
        shared_locks=io.shared_locks,
        aggregators_per_ost=io.aggregators_per_ost,
    )


def resolve_job(machine: Machine, job: JobScenarioSpec) -> JobSpec:
    """The one resolver from a scenario job to its :class:`JobSpec`.

    A single-job scenario is the one-job case (see
    :meth:`Simulation.resolve`) and every job of a multi-job scenario goes
    through here too, so a job prices the same alone and co-running.  The
    storage spec's stripe applies to the job's file unless the MPI I/O hints
    stripe it (see :func:`~repro.multijob.job.job_plan`).
    """
    # Imported here: the multijob package (runtime, ledger, allocator) loads
    # only once a scenario runs, not with every experiment module.
    from repro.multijob.job import JobSpec

    filesystem, stripe = resolve_storage(job.storage, machine)
    tapioca = job.io.kind == "tapioca"
    return JobSpec(
        name=job.name,
        num_nodes=job.num_nodes,
        workload=job.workload.resolve(job.num_ranks),
        ranks_per_node=job.ranks_per_node,
        method="tapioca" if tapioca else "mpiio",
        config=resolve_tapioca_config(job.io, job.placement, machine, stripe) if tapioca else None,
        hints=None if tapioca else resolve_hints(job.io, machine, stripe),
        stripe=stripe,
        filesystem=filesystem,
        arrival_s=job.arrival_s,
        compute_s=job.compute_s,
    )


class Simulation:
    """Facade running one scenario through the performance-model layers.

    Args:
        scenario: the declarative description to resolve and run.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._machine: Machine | None = None

    # -- resolution ---------------------------------------------------------

    @property
    def machine(self) -> Machine:
        """The resolved machine model (built once, shared by all paths)."""
        if self._machine is None:
            self._machine = resolve_machine(self.scenario.machine)
        return self._machine

    def resolve(self) -> JobSpec:
        """The single job of a single-job scenario, on the whole machine."""
        scenario, machine = self.scenario, self.machine
        job = JobScenarioSpec(
            name=scenario.id,
            num_nodes=machine.num_nodes,
            workload=scenario.workload,
            io=scenario.io,
            placement=scenario.placement,
            storage=scenario.storage,
            ranks_per_node=scenario.machine.ranks_per_node or machine.default_ranks_per_node,
        )
        return resolve_job(machine, job)

    # -- single-job path ----------------------------------------------------

    def estimate(self, spec: JobSpec | None = None) -> IOEstimate:
        """The performance estimate of a single-job scenario: its job's plan
        on the default block mapping (which keeps it in the aggregation memo)."""
        if self.scenario.multijob is not None:
            raise ScenarioError(
                f"scenario {self.scenario.id!r} is multi-job; use run() or "
                f"interference_report()"
            )
        from repro.multijob.job import job_plan

        if spec is None:
            spec = self.resolve()
        with obs_span("scenario.estimate", cat="scenario", method=spec.method):
            return estimate_plans(self.machine, [job_plan(self.machine, spec)])[0]

    # -- multi-job path -----------------------------------------------------

    def job_specs(self) -> list[JobSpec]:
        """The runtime :class:`~repro.multijob.job.JobSpec` per declared job."""
        if self.scenario.multijob is None:
            raise ScenarioError(f"scenario {self.scenario.id!r} has no multijob spec")
        return [resolve_job(self.machine, job) for job in self.scenario.multijob.jobs]

    def multijob_runtime(self):
        """A fresh :class:`~repro.multijob.runtime.MultiJobRuntime` for the scenario."""
        from repro.multijob.runtime import MultiJobRuntime

        assert self.scenario.multijob is not None  # guarded by job_specs()
        return MultiJobRuntime(
            self.machine,
            self.job_specs(),
            allocation_policy=self.scenario.multijob.allocation_policy,
        )

    def interference_report(self):
        """Run a multi-job scenario and return its interference report."""
        return self.multijob_runtime().run()

    # -- uniform entry point ------------------------------------------------

    @memoised_aggregations()
    def run(self) -> ExperimentResult:
        """Run the scenario and package the outcome as an experiment result.

        Single-job scenarios yield one series with one point (the scenario's
        bandwidth at its data size); multi-job scenarios yield the per-job
        slowdowns plus a bandwidth-conservation check.
        """
        # Imported lazily: repro.experiments imports the experiment modules,
        # which import this package — the experiment result containers are
        # only needed once a scenario actually runs.
        from repro.experiments.results import ExperimentResult, Series

        if self.scenario.multijob is not None:
            return self._run_multijob()
        spec = self.resolve()
        estimate = self.estimate(spec)
        series = Series(estimate.method)
        series.add(
            round(spec.workload.bytes_per_rank() / MB, 3),
            estimate.bandwidth_gbps(),
        )
        result = ExperimentResult(
            experiment_id=self.scenario.id,
            title=self.scenario.title or f"scenario {self.scenario.id}",
            machine=self.machine.name,
            x_label="MB/rank",
            series=[series],
        )
        result.notes = (
            f"{spec.workload.name} on {spec.num_nodes} nodes, "
            f"{spec.ranks_per_node} ranks/node"
        )
        if self.scenario.placement.certify and self.scenario.io.kind == "tapioca":
            # Imported lazily for the same layering reason as the result
            # containers above; default-off so uncertified runs (and their
            # artifacts) are untouched.
            from repro.placement_opt.certify import maybe_certify_result

            maybe_certify_result(result, self.scenario)
        return result

    def _run_multijob(self) -> "ExperimentResult":
        from repro.experiments.results import ExperimentResult, Series

        report = self.interference_report()
        slowdown = Series("per-job slowdown")
        for index, outcome in enumerate(report.outcomes):
            slowdown.add(index, round(outcome.slowdown, 4))
        result = ExperimentResult(
            experiment_id=self.scenario.id,
            title=self.scenario.title or f"scenario {self.scenario.id}",
            machine=self.machine.name,
            x_label="job index",
            series=[slowdown],
            checks={
                "the contention ledger conserves bandwidth": (
                    report.conserves_bandwidth()
                ),
            },
        )
        result.notes = "Job order: " + ", ".join(
            outcome.name for outcome in report.outcomes
        )
        return result


def run_scenario(scenario: Scenario) -> ExperimentResult:
    """Convenience wrapper: resolve and run one scenario."""
    return Simulation(scenario).run()
