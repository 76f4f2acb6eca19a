"""High-level TAPIOCA facade.

Two user-facing entry points live here:

* :func:`evaluate` — the **one** evaluation API: it accepts a registered
  experiment id, a registered scenario name, a scenario JSON payload, or a
  :class:`~repro.scenario.spec.Scenario` instance, and returns a uniform
  :class:`Evaluation`.  The CLI's ``run``/``scenario run`` and every
  autotuner candidate call it; the evaluation daemon (``repro serve``)
  simulates through the same :func:`simulate_scenario`, and stores through
  the same :class:`~repro.experiments.store.ArtifactStore` record, so
  caching, hashing, and override semantics are identical everywhere.
* :class:`Tapioca` — the paper-shaped declare-then-write library facade.

The paper's user-facing API (Algorithm 2) is::

    TAPIOCA_Init(count[], type[], offset[], nVar);
    TAPIOCA_Write(f, offset, x, n, type, status);   // one call per variable
    ...

i.e. the application *declares* all upcoming writes, then performs them.
:class:`Tapioca` is the Python analogue for this reproduction.  It accepts a
declaration (either a :class:`~repro.workloads.base.Workload` or per-rank
``(counts, type_sizes, offsets)`` arrays exactly like the paper) and offers
two execution paths:

* :meth:`Tapioca.simulate_write` / :meth:`Tapioca.simulate_read` — run the
  real aggregation protocol on the discrete-event MPI (practical up to a few
  hundred ranks; produces byte-exact files);
* :meth:`Tapioca.estimate_write` / :meth:`Tapioca.estimate_read` — the
  flow-level analytic model (practical at the paper's 8K–64K rank scales).

It also exposes the placement decision (:meth:`Tapioca.placement_report`)
so applications and the ablation experiments can inspect which node each
partition elected and why.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.aggregation import AggregationSchedule, build_schedule
from repro.core.config import TapiocaConfig
from repro.core.partitioning import Partitions
from repro.core.placement import PlacementResult, place_aggregators
from repro.core.topology_iface import TopologyInterface
from repro.machine.machine import Machine
from repro.obs import elapsed_s, now, recorder as obs_recorder, span as obs_span
from repro.storage.lustre import LustreModel, LustreStripeConfig
from repro.topology.mapping import RankMapping
from repro.utils.validation import require, require_positive
from repro.workloads.base import Segment, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotune.objectives import Objective
    from repro.experiments.results import ExperimentResult
    from repro.experiments.store import ArtifactStore
    from repro.perfmodel.tapioca import TapiocaPlan
    from repro.scenario.spec import Scenario


# --------------------------------------------------------------------------- #
# The unified evaluation entry point
# --------------------------------------------------------------------------- #


class _ResultKey:
    """:attr:`Evaluation.key`: the key it was given or, for a scenario
    result given none, the scenario's content hash, resolved on first read
    (an evaluation without a store never pays for the hash otherwise)."""

    def __get__(self, evaluation: "Evaluation | None", owner: type | None = None):
        if evaluation is None:
            return None  # the dataclass default
        key = evaluation.__dict__.get("_key")
        if key is None and evaluation.result is not None and evaluation.scenario is not None:
            key = evaluation.__dict__["_key"] = evaluation.scenario.content_hash()
        return key

    def __set__(self, evaluation: "Evaluation", key: str | None) -> None:
        evaluation.__dict__["_key"] = key


@dataclass
class Evaluation:
    """The uniform outcome of one :func:`evaluate` call.

    Attributes:
        result: the experiment result (``None`` only in objective mode).
        value: the objective value when an ``objective`` was requested.
        cached: whether the outcome was served from the store without
            re-simulating.
        source: ``"experiment"`` for registry ids, ``"scenario"`` otherwise.
        key: content address — the artifact cache key for experiments, the
            scenario hash for scenarios, resolved on first read (``None`` in
            objective mode).
        wall_time_s: simulation wall time (the original run's for cache hits).
        scenario: the concrete scenario evaluated (``None`` for experiments,
            whose sweeps expand many scenarios internally).
    """

    result: "ExperimentResult | None"
    value: float | None = None
    cached: bool = False
    source: str = "scenario"
    key: str | None = _ResultKey()  # type: ignore[assignment]
    wall_time_s: float = 0.0
    scenario: "Scenario | None" = None


def evaluate(
    scenario: "Scenario | Mapping | str",
    *,
    scale: float | None = None,
    jobs: int | None = None,
    store: "ArtifactStore | None" = None,
    overrides: Mapping[str, Any] | None = None,
    objective: "Objective | str | None" = None,
    use_cache: bool = True,
) -> Evaluation:
    """Evaluate one experiment or scenario — the single public entry point.

    Accepts, in one argument, everything the toolkit can evaluate:

    * a registered **experiment id** (``"fig08"``) — runs the experiment's
      sweep, with ``(id, scale, overrides)`` artifact caching when a store
      is given;
    * a registered **scenario name** — resolved at the requested scale;
    * a **scenario payload** (``Scenario.to_dict`` output / parsed JSON);
    * a :class:`~repro.scenario.spec.Scenario` instance.

    Scenario evaluations are cached by the scenario's
    :meth:`~repro.scenario.spec.Scenario.content_hash`: submitting the same
    description again — from this process, another process, or through the
    evaluation daemon — is a warm hit served without re-simulating.

    Args:
        scenario: what to evaluate (see above).
        scale: node-count divisor; applies to experiment ids and registered
            scenario names (a concrete scenario is rescaled via
            :func:`repro.autotune.tuner.rescale_scenario`).  ``None`` = 1.0.
        jobs: worker processes for the fan-out stages (``None``/1 =
            in-process).
        store: artifact store serving and receiving cached results
            (``None`` disables persistence).
        overrides: dotted-path scenario overrides (the CLI's ``--set``).
        objective: evaluate a tuning objective (name or
            :class:`~repro.autotune.objectives.Objective`) instead of
            producing a result table; only valid for scenarios.
        use_cache: when a store is given, serve cache hits from it.

    Raises:
        KeyError: unknown experiment/scenario name (with a did-you-mean hint).
        ScenarioError: invalid scenario description or overrides.
    """
    from repro.scenario.registry import get_scenario, scenario_ids
    from repro.scenario.spec import Scenario

    divisor = 1.0 if scale is None else float(scale)
    jobs = 1 if jobs is None else max(1, int(jobs))

    if isinstance(scenario, str):
        from repro.experiments.harness import EXPERIMENTS

        if scenario in EXPERIMENTS:
            if objective is not None:
                raise ValueError(
                    f"objectives apply to scenarios, not experiment sweeps "
                    f"(got experiment id {scenario!r})"
                )
            return _evaluate_experiment(
                scenario,
                scale=divisor,
                jobs=jobs,
                store=store,
                overrides=overrides,
                use_cache=use_cache,
            )
        if scenario in scenario_ids():
            scenario = get_scenario(scenario, scale=divisor)
            divisor = 1.0  # the registry builder already applied the scale
        else:
            # Unknown either way: raise the experiment registry's KeyError,
            # whose message lists both hints via the CLI's error paths.
            from repro.experiments.harness import unknown_experiment_message

            raise KeyError(unknown_experiment_message(scenario))
    elif isinstance(scenario, Mapping):
        scenario = Scenario.from_dict(scenario)

    concrete: Scenario = scenario.with_overrides(overrides)
    if divisor != 1.0:
        from repro.autotune.tuner import rescale_scenario

        concrete = rescale_scenario(concrete, divisor)

    if objective is not None:
        from repro.autotune.objectives import get_objective

        if isinstance(objective, str):
            objective = get_objective(objective)
        return Evaluation(
            result=None,
            value=objective.compute(concrete),
            source="scenario",
            scenario=concrete,
        )
    return _evaluate_scenario(
        concrete, jobs=jobs, store=store, use_cache=use_cache
    )


def _evaluate_experiment(
    experiment_id: str,
    *,
    scale: float,
    jobs: int,
    store: "ArtifactStore | None",
    overrides: Mapping[str, Any] | None,
    use_cache: bool,
) -> Evaluation:
    """Run one registered experiment through the parallel runner."""
    from repro.experiments.runner import run_experiments
    from repro.experiments.store import cache_key

    report = run_experiments(
        [experiment_id],
        scale=scale,
        jobs=jobs,
        store=store,
        use_cache=use_cache,
        overrides=overrides,
    )
    outcome = report.outcomes[0]
    return Evaluation(
        result=outcome.result,
        cached=outcome.cached,
        source="experiment",
        key=cache_key(experiment_id, scale, overrides),
        wall_time_s=outcome.wall_time_s,
    )


def _evaluate_scenario(
    scenario: "Scenario",
    *,
    jobs: int,
    store: "ArtifactStore | None",
    use_cache: bool,
) -> Evaluation:
    """Run one concrete scenario, hash-cached against the store; without a
    store the scenario is not hashed unless the result's ``key`` is read."""
    from repro.experiments.results import ExperimentResult
    from repro.scenario.spec import ScenarioError

    if store is not None:
        # The dict the store saves is the one hashed: one serialisation.
        payload, scenario_hash = scenario.hashed_dict()
        record = store.load_scenario_result(scenario_hash) if use_cache else None
        if record is not None:
            return Evaluation(
                result=ExperimentResult.from_dict(record.result),
                cached=True,
                source="scenario",
                key=scenario_hash,
                wall_time_s=record.wall_time_s,
                scenario=scenario,
            )

    if jobs > 1:
        # Run on the shared persistent pool: a follow-up evaluation (or a
        # daemon batch) lands on warm workers.
        from repro.experiments.runner import evaluate_scenarios

        (outcome,) = evaluate_scenarios([scenario], jobs=jobs)
        if isinstance(outcome, str):
            raise ScenarioError(outcome)
    else:
        outcome = simulate_scenario(scenario)
    if store is None:
        return replace(outcome, scenario=scenario)
    store.save_scenario_result(
        scenario_hash, payload, outcome.result.to_dict(), outcome.wall_time_s
    )
    return replace(outcome, key=scenario_hash, scenario=scenario)


def simulate_scenario(scenario: "Scenario") -> Evaluation:
    """Simulate one concrete scenario: no store, no hash, timed.

    The unit of work behind every scenario evaluation, in-process and in
    the runner's batch worker; the returned :class:`Evaluation` carries the
    result and wall time only, so it pickles back from a worker small.
    """
    from repro.scenario.simulation import Simulation

    start = now()
    with obs_span("evaluate.scenario", cat="api", scenario=scenario.id):
        result = Simulation(scenario).run()
    wall_time_s = elapsed_s(start)
    rec = obs_recorder()
    if rec is not None:
        rec.inc("api.scenario_evaluations")
        rec.observe("api.scenario_seconds", wall_time_s)
    return Evaluation(result=result, wall_time_s=wall_time_s)


class DeclaredWorkload(Workload):
    """A workload built from per-rank ``TAPIOCA_Init``-style declarations.

    Args:
        declarations: for each rank, a list of ``(count, type_size, offset)``
            triples — exactly the three arrays of the paper's Algorithm 2.
        access: ``"write"`` or ``"read"``.
    """

    name = "declared"

    def __init__(
        self,
        declarations: Sequence[Sequence[tuple[int, int, int]]],
        *,
        access: str = "write",
        payload_seed: int = 0,
    ) -> None:
        require(len(declarations) > 0, "need at least one rank's declaration")
        self.num_ranks = len(declarations)
        self.access = access
        self.payload_seed = payload_seed
        self._segments: list[list[Segment]] = []
        max_vars = 0
        for rank, triples in enumerate(declarations):
            segments = []
            for var_index, (count, type_size, offset) in enumerate(triples):
                require(count >= 0, f"count must be >= 0, got {count}")
                require_positive(type_size, "type_size")
                require(offset >= 0, f"offset must be >= 0, got {offset}")
                nbytes = int(count) * int(type_size)
                if nbytes > 0:
                    segments.append(
                        Segment(
                            rank=rank,
                            offset=int(offset),
                            nbytes=nbytes,
                            call_index=var_index,
                            variable=f"var{var_index}",
                        )
                    )
                max_vars = max(max_vars, var_index + 1)
            self._segments.append(segments)
        self._num_calls = max(max_vars, 1)

    def num_calls(self) -> int:
        return self._num_calls

    def segments_for_rank(self, rank: int) -> list[Segment]:
        self.validate_rank(rank)
        return list(self._segments[rank])

    def is_uniform(self) -> bool:
        return False


@dataclass
class SimulationOutcome:
    """Result of a discrete-event TAPIOCA run.

    Attributes:
        elapsed: simulated wall time in seconds.
        bandwidth: aggregate bandwidth in bytes/s.
        total_bytes: bytes moved.
        elected: aggregator world rank per partition index.
        world_result: the raw :class:`repro.simmpi.world.WorldResult`.
    """

    elapsed: float
    bandwidth: float
    total_bytes: int
    elected: dict[int, int]
    world_result: Any


class Tapioca:
    """User-facing TAPIOCA instance for one machine + declared workload.

    :meth:`declare` builds the one :class:`~repro.perfmodel.tapioca.TapiocaPlan`
    of the session; the mapping, the partitions, the striped file system of
    both execution paths and the analytic estimates all come from it.

    Args:
        machine: the platform to run on.
        config: TAPIOCA configuration (aggregator count, buffer size,
            placement strategy, pipeline depth...).
        ranks_per_node: MPI ranks per node (defaults to the machine's usual).
        mapping: explicit rank-to-node mapping (defaults to block mapping).
        stripe: optional Lustre striping for the output file; refused on a
            machine whose file system is not Lustre.
    """

    def __init__(
        self,
        machine: Machine,
        config: TapiocaConfig | None = None,
        *,
        ranks_per_node: int | None = None,
        mapping: RankMapping | None = None,
        stripe: LustreStripeConfig | None = None,
    ) -> None:
        filesystem = machine.filesystem()
        if stripe is not None and not isinstance(filesystem, LustreModel):
            raise ValueError(
                "a Lustre stripe configuration was given but the machine's "
                f"file system is {filesystem.name}"
            )
        self.machine = machine
        self.config = config or TapiocaConfig()
        self.ranks_per_node = (
            machine.default_ranks_per_node if ranks_per_node is None else ranks_per_node
        )
        machine.validate_ranks_per_node(self.ranks_per_node)
        self.stripe = stripe
        self._explicit_mapping = mapping
        self.workload: Workload | None = None
        self._plan: TapiocaPlan | None = None

    # ------------------------------------------------------------------ #
    # Declaration (TAPIOCA_Init)
    # ------------------------------------------------------------------ #

    def declare(self, workload: Workload) -> "Tapioca":
        """Declare the upcoming I/O as a :class:`Workload`; returns ``self``."""
        from repro.perfmodel.tapioca import TapiocaPlan

        # Only an explicit mapping is passed: a block-mapped session keeps
        # the model's default mapping, and with it the aggregation memo.
        self._plan = TapiocaPlan(
            self.machine,
            workload,
            self.config,
            ranks_per_node=self.ranks_per_node,
            mapping=self._explicit_mapping,
            stripe=self.stripe,
        )
        self.workload = workload
        return self

    def init(
        self, declarations: Sequence[Sequence[tuple[int, int, int]]]
    ) -> "Tapioca":
        """Paper-style ``TAPIOCA_Init``: per-rank (count, type_size, offset) triples."""
        return self.declare(DeclaredWorkload(declarations))

    def _require_plan(self) -> TapiocaPlan:
        if self._plan is None:
            raise RuntimeError(
                "no workload declared; call declare() or init() first "
                "(the paper requires describing upcoming I/O before writing)"
            )
        return self._plan

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def mapping(self) -> RankMapping:
        """The rank-to-node mapping used."""
        return self._require_plan().context.mapping

    def partitions(self) -> Partitions:
        """The aggregation partitions implied by the configuration."""
        return self._require_plan().partitions

    def placement_report(self, *, granularity: str = "node") -> PlacementResult:
        """Run the placement and return per-partition elected aggregators."""
        plan = self._require_plan()
        return place_aggregators(
            plan.partitions,
            TopologyInterface(self.machine, plan.context.mapping),
            strategy=plan.strategy,
            seed=plan.seed,
            granularity=granularity,
        )

    def schedule(self) -> AggregationSchedule:
        """The aggregation round schedule for the declared workload."""
        plan = self._require_plan()
        return build_schedule(plan.context.workload, plan.partitions, self.config.buffer_size)

    # ------------------------------------------------------------------ #
    # Discrete-event execution
    # ------------------------------------------------------------------ #

    def simulate_write(self, *, path: str = "/out/tapioca.dat") -> SimulationOutcome:
        """Run the full TAPIOCA write protocol on the discrete-event MPI."""
        return self._simulate(path, "write_program")

    def simulate_read(self, *, path: str = "/out/tapioca.dat") -> SimulationOutcome:
        """Run the full TAPIOCA read protocol on the discrete-event MPI.

        The file must have been populated beforehand (e.g. by
        :meth:`simulate_write` with the same path, or directly through the
        returned world's file registry).
        """
        return self._simulate(path, "read_program")

    def _simulate(self, path: str, program: str) -> SimulationOutcome:
        from repro.core.runtime import TapiocaIO
        from repro.simmpi.world import SimWorld

        plan = self._require_plan()
        workload = plan.context.workload
        world = SimWorld(
            self.machine,
            num_nodes=plan.context.num_nodes,
            ranks_per_node=self.ranks_per_node,
            mapping=self._explicit_mapping,
        )
        runtime = TapiocaIO(
            world, workload, self.config, path=path, filesystem=plan.context.filesystem
        )
        result = world.run(getattr(runtime, program)())
        total = workload.total_bytes()
        return SimulationOutcome(
            elapsed=result.elapsed,
            bandwidth=result.bandwidth(total),
            total_bytes=total,
            elected=dict(runtime.elected),
            world_result=result,
        )

    # ------------------------------------------------------------------ #
    # Analytic estimates
    # ------------------------------------------------------------------ #

    def estimate_write(self):
        """Flow-level analytic estimate of the declared write (``IOEstimate``)."""
        return self._estimate("write")

    def estimate_read(self):
        """Flow-level analytic estimate of the declared read (``IOEstimate``)."""
        return self._estimate("read")

    def _estimate(self, access: str):
        from repro.perfmodel.batch import estimate_plans

        plan = copy(self._require_plan())
        plan.access = access
        return estimate_plans(self.machine, [plan])[0]
