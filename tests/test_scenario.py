"""Tests for the declarative scenario API (spec tree, sweeps, facade, registry)."""

import pytest

from repro.experiments.harness import EXPERIMENTS
from repro.scenario import (
    IOStrategySpec,
    JobScenarioSpec,
    MachineSpec,
    MultiJobSpec,
    PlacementSpec,
    Scenario,
    ScenarioError,
    Simulation,
    StorageSpec,
    Sweep,
    WorkloadSpec,
    apply_overrides,
    axis,
    get_scenario,
    parse_override,
    parse_overrides,
    scenario_ids,
    zipped,
)
from repro.utils.scaling import scaled_nodes
from repro.utils.units import MB, MIB


def _single_job_scenario() -> Scenario:
    return Scenario(
        id="demo",
        title="demo scenario",
        machine=MachineSpec(kind="theta", num_nodes=32),
        workload=WorkloadSpec(kind="hacc", particles_per_rank=10_000, layout="soa"),
        io=IOStrategySpec(kind="tapioca", aggregators_per_ost=2, buffer_size=8 * MIB),
        placement=PlacementSpec(strategy="rank-order", seed=11),
        storage=StorageSpec(kind="lustre", stripe_count=8, stripe_size=8 * MIB),
    )


def _multijob_scenario() -> Scenario:
    job = JobScenarioSpec(
        name="A",
        num_nodes=8,
        workload=WorkloadSpec(kind="ior", bytes_per_rank=2 * MB),
        io=IOStrategySpec(kind="tapioca", num_aggregators=16, buffer_size=8 * MIB),
        storage=StorageSpec(kind="lustre", stripe_count=2, stripe_size=8 * MIB),
    )
    return Scenario(
        id="demo_multi",
        machine=MachineSpec(kind="theta", num_nodes=16),
        multijob=MultiJobSpec(
            jobs=(
                job,
                JobScenarioSpec(
                    name="B",
                    num_nodes=8,
                    workload=job.workload,
                    io=job.io,
                    storage=job.storage,
                ),
            ),
            allocation_policy="contiguous",
        ),
    )


class TestRoundTrip:
    def test_default_scenario_round_trips(self):
        scenario = Scenario(id="defaults")
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_single_job_round_trips_through_dict_and_json(self):
        scenario = _single_job_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_multijob_round_trips(self):
        scenario = _multijob_scenario()
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert isinstance(rebuilt.multijob.jobs, tuple)
        assert rebuilt.multijob.jobs[1].name == "B"

    def test_content_hash_is_pinned(self):
        """The canonical form of a fixed multi-job payload, and therefore
        every stored result's address, does not drift."""
        payload = {
            "id": "hash_pin",
            "machine": {"kind": "theta", "num_nodes": 64},
            "multijob": {
                "allocation_policy": "scattered",
                "jobs": [
                    {
                        "name": "A",
                        "num_nodes": 8,
                        "workload": {"kind": "hacc", "particles_per_rank": 5000, "layout": "soa"},
                        "io": {"kind": "tapioca", "num_aggregators": 4, "buffer_size": 4194304},
                        "placement": {"strategy": "random", "seed": 3},
                        "storage": {"kind": "lustre", "stripe_count": 4, "ost_start": 10},
                        "arrival_s": 0.5,
                    },
                    {
                        "name": "B",
                        "num_nodes": 4,
                        "workload": {"kind": "ior", "bytes_per_rank": 2000000, "access": "read"},
                        "io": {"kind": "mpiio", "buffer_size": 8388608},
                        "storage": {"kind": "burst-buffer", "name": "bb0", "drain_gbps": 2.0},
                        "compute_s": 1.25,
                    },
                ],
            },
        }
        scenario = Scenario.from_dict(payload)
        assert scenario.content_hash() == (
            "eea426f0c4f39566113fd2fb40b649bab38c77af5d61139a5789c86786f38e24"
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_every_registered_scenario_round_trips(self):
        for name in scenario_ids():
            scenario = get_scenario(name, scale=16.0)
            assert Scenario.from_json(scenario.to_json()) == scenario, name

    def test_unknown_key_rejected_with_suggestion(self):
        payload = _single_job_scenario().to_dict()
        payload["workload"]["bytes_per_rnk"] = 5
        with pytest.raises(ScenarioError, match="bytes_per_rank"):
            Scenario.from_dict(payload)

    def test_invalid_nested_value_reports_spec_class(self):
        payload = _single_job_scenario().to_dict()
        payload["io"]["pipeline_depth"] = 3
        with pytest.raises(ScenarioError, match="IOStrategySpec"):
            Scenario.from_dict(payload)

    def test_bad_json_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{not json")


class TestValidation:
    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            MachineSpec(kind="summit")
        with pytest.raises(ValueError):
            WorkloadSpec(kind="checkpoint")
        with pytest.raises(ValueError):
            IOStrategySpec(kind="posix")
        with pytest.raises(ValueError):
            StorageSpec(kind="tape")

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            MachineSpec(num_nodes=0)
        with pytest.raises(ValueError):
            WorkloadSpec(bytes_per_rank=-1)
        with pytest.raises(ValueError):
            IOStrategySpec(num_aggregators=0)

    def test_multijob_requires_unique_job_names(self):
        job = JobScenarioSpec(name="A", num_nodes=4)
        with pytest.raises(ValueError, match="unique"):
            MultiJobSpec(jobs=(job, job))

    def test_scenario_requires_an_id(self):
        with pytest.raises(ValueError):
            Scenario(id="")


class TestOverrides:
    def test_nested_override(self):
        scenario = _single_job_scenario()
        updated = apply_overrides(
            scenario, {"workload.layout": "aos", "io.buffer_size": 4 * MIB}
        )
        assert updated.workload.layout == "aos"
        assert updated.io.buffer_size == 4 * MIB
        # The original is untouched (frozen specs).
        assert scenario.workload.layout == "soa"

    def test_tuple_index_override_reaches_into_multijob(self):
        scenario = _multijob_scenario()
        updated = apply_overrides(scenario, {"multijob.jobs.1.storage.ost_start": 2})
        assert updated.multijob.jobs[1].storage.ost_start == 2
        assert updated.multijob.jobs[0].storage.ost_start == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="no field"):
            apply_overrides(_single_job_scenario(), {"workload.sizzle": 1})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="Scenario"):
            apply_overrides(_single_job_scenario(), {"wrkload.layout": "aos"})

    def test_invalid_value_rejected(self):
        with pytest.raises(ScenarioError, match="pipeline_depth"):
            apply_overrides(_single_job_scenario(), {"io.pipeline_depth": 3})

    def test_bad_tuple_index_rejected(self):
        scenario = _multijob_scenario()
        with pytest.raises(ScenarioError, match="out of range"):
            apply_overrides(scenario, {"multijob.jobs.7.num_nodes": 4})
        with pytest.raises(ScenarioError, match="list index"):
            apply_overrides(scenario, {"multijob.jobs.first.num_nodes": 4})

    def test_wholesale_nested_override_is_validated(self):
        scenario = _single_job_scenario()
        updated = apply_overrides(
            scenario, {"workload": {"kind": "ior", "bytes_per_rank": 2 * MB}}
        )
        assert isinstance(updated.workload, WorkloadSpec)
        assert updated.workload.kind == "ior"
        with pytest.raises(ScenarioError, match="bytes_per_rnk"):
            apply_overrides(scenario, {"workload": {"bytes_per_rnk": 1}})

    def test_wholesale_multijob_override_builds_job_specs(self):
        scenario = _single_job_scenario()
        updated = apply_overrides(
            scenario,
            {
                "multijob": {
                    "jobs": [
                        {"name": "A", "num_nodes": 4},
                        {"name": "B", "num_nodes": 4},
                    ]
                }
            },
        )
        assert isinstance(updated.multijob, MultiJobSpec)
        assert updated.multijob.jobs[1].name == "B"

    def test_parse_override_decodes_json_values(self):
        assert parse_override("io.buffer_size=8388608") == ("io.buffer_size", 8388608)
        assert parse_override("io.shared_locks=false") == ("io.shared_locks", False)
        assert parse_override("workload.layout=soa") == ("workload.layout", "soa")

    def test_parse_override_requires_key_equals_value(self):
        with pytest.raises(ScenarioError):
            parse_override("io.buffer_size")
        with pytest.raises(ScenarioError):
            parse_override("=5")

    def test_parse_overrides_merges_pairs(self):
        overrides = parse_overrides(["a.b=1", "c.d=x"])
        assert overrides == {"a.b": 1, "c.d": "x"}
        assert parse_overrides(None) == {}


class TestSweep:
    def test_cartesian_product_order(self):
        base = _single_job_scenario()
        sweep = Sweep(
            axis("io.kind", ("tapioca", "mpiio")),
            axis("workload.particles_per_rank", (5_000, 10_000, 25_000)),
        )
        scenarios = sweep.expand(base)
        assert sweep.size() == len(scenarios) == 6
        # Outer axis varies slowest, like nested for loops.
        assert [s.io.kind for s in scenarios[:3]] == ["tapioca"] * 3
        assert [s.workload.particles_per_rank for s in scenarios[:3]] == [
            5_000,
            10_000,
            25_000,
        ]

    def test_zipped_axes_advance_in_lockstep(self):
        base = _single_job_scenario()
        sweep = Sweep(
            zipped(
                axis("storage.stripe_size", (4 * MIB, 8 * MIB)),
                axis("io.buffer_size", (4 * MIB, 8 * MIB)),
            )
        )
        scenarios = sweep.expand(base)
        assert len(scenarios) == 2
        for scenario in scenarios:
            assert scenario.storage.stripe_size == scenario.io.buffer_size

    def test_zipped_rejects_mismatched_lengths(self):
        with pytest.raises(ScenarioError, match="equal lengths"):
            zipped(axis("a", (1, 2)), axis("b", (1, 2, 3)))

    def test_sweep_rejects_unknown_fields_at_expansion(self):
        with pytest.raises(ScenarioError, match="no field"):
            Sweep(axis("io.bufsize", (1,))).expand(_single_job_scenario())

    def test_walk_yields_grid_points(self):
        base = _single_job_scenario()
        points = list(Sweep(axis("workload.layout", ("aos", "soa"))).walk(base))
        assert points[0][0] == {"workload.layout": "aos"}
        assert points[1][1].workload.layout == "soa"


class TestSimulation:
    def test_estimate_matches_direct_model_call(self):
        from repro.core.config import TapiocaConfig
        from repro.machine.theta import ThetaMachine
        from repro.perfmodel.tapioca import model_tapioca
        from repro.storage.lustre import LustreStripeConfig

        scenario = _single_job_scenario()
        estimate = Simulation(scenario).estimate()
        direct = model_tapioca(
            ThetaMachine(32),
            scenario.workload.resolve(32 * 16),
            TapiocaConfig(
                num_aggregators=16,  # 2 per OST x 8 OSTs
                buffer_size=8 * MIB,
                placement="rank-order",
                placement_seed=11,
            ),
            stripe=LustreStripeConfig(8, 8 * MIB),
        )
        assert estimate.bandwidth == direct.bandwidth

    def test_run_reproduces_identical_result_after_json_round_trip(self):
        scenario = _single_job_scenario()
        first = Simulation(scenario).run().to_dict()
        rerun = Simulation(Scenario.from_json(scenario.to_json())).run().to_dict()
        assert first == rerun

    def test_multijob_run_reports_slowdowns(self):
        result = Simulation(_multijob_scenario()).run()
        assert result.all_checks_pass()
        slowdown = result.series_by_label("per-job slowdown")
        # Both jobs write through the same two OSTs: both slow down.
        assert len(slowdown.points) == 2
        assert all(point.bandwidth_gbps > 1.05 for point in slowdown.points)

    def test_multijob_disjoint_osts_restore_isolation(self):
        scenario = apply_overrides(
            _multijob_scenario(), {"multijob.jobs.1.storage.ost_start": 2}
        )
        slowdown = Simulation(scenario).run().series_by_label("per-job slowdown")
        assert all(point.bandwidth_gbps <= 1.01 for point in slowdown.points)

    def test_estimate_refuses_multijob_scenarios(self):
        with pytest.raises(ScenarioError, match="multi-job"):
            Simulation(_multijob_scenario()).estimate()

    def test_gpfs_storage_requires_mira(self):
        scenario = Scenario(
            id="bad",
            machine=MachineSpec(kind="theta", num_nodes=16),
            storage=StorageSpec(kind="gpfs"),
        )
        with pytest.raises(ScenarioError, match="Mira"):
            Simulation(scenario).estimate()

    def test_hidden_gateways_machine_reports_no_gateways(self):
        spec = MachineSpec(
            kind="generic", num_nodes=32, nodes_per_leaf=16, hide_gateways=True
        )
        machine = Simulation(Scenario(id="hidden", machine=spec)).machine
        assert machine.io_gateways() == []


class TestRegistry:
    def test_every_experiment_id_has_a_registered_scenario(self):
        names = scenario_ids()
        for experiment_id in EXPERIMENTS:
            assert any(
                name == experiment_id or name.startswith(experiment_id + "/")
                for name in names
            ), experiment_id

    def test_get_scenario_applies_scale(self):
        assert get_scenario("fig10", scale=16.0).machine.num_nodes == scaled_nodes(
            512, 16.0
        )

    def test_unknown_scenario_suggests_a_close_match(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_scenario("fig1O")

    def test_registered_multijob_scenarios_resolve(self):
        scenario = get_scenario("interference_theta_ost/disjoint", scale=16.0)
        assert scenario.multijob is not None
        assert scenario.multijob.jobs[1].storage.ost_start == 2


class TestExperimentOverrides:
    def test_evaluate_accepts_experiment_overrides(self):
        from repro.core.api import evaluate

        stock = evaluate("fig10", scale=16.0).result
        detuned = evaluate(
            "fig10", scale=16.0, overrides={"storage.stripe_count": 4}
        ).result
        assert stock.series_by_label("TAPIOCA").max() != detuned.series_by_label(
            "TAPIOCA"
        ).max()

    def test_unknown_override_key_raises_scenario_error(self):
        from repro.core.api import evaluate

        with pytest.raises(ScenarioError):
            evaluate("fig10", scale=16.0, overrides={"io.bufsize": 1})

    def test_unknown_experiment_id_suggests_close_matches(self):
        from repro.core.api import evaluate

        with pytest.raises(KeyError, match="did you mean"):
            evaluate("fig13x")

    def test_override_changes_the_artifact_cache_key(self):
        from repro.experiments.store import cache_key

        assert cache_key("fig10", 8.0) != cache_key(
            "fig10", 8.0, {"io.buffer_size": 1}
        )
        assert cache_key("fig10", 8.0) == cache_key("fig10", 8.0, {})

    def test_overridden_artifacts_do_not_clobber_published_ones(self, tmp_path):
        from repro.experiments.runner import run_experiments
        from repro.experiments.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        run_experiments(["fig10"], scale=16.0, store=store)
        published = store.artifact_path("fig10").read_text()
        overrides = {"io.buffer_size": 4 * MIB}
        run_experiments(["fig10"], scale=16.0, store=store, overrides=overrides)
        # The as-published artifact is untouched; the overridden run lives
        # in its own file, excluded from the manifest-facing id listing.
        assert store.artifact_path("fig10").read_text() == published
        assert store.artifact_path("fig10", overrides) != store.artifact_path("fig10")
        assert store.has("fig10", 16.0) and store.has("fig10", 16.0, overrides)
        assert store.experiment_ids() == ["fig10"]
        # And the overridden cache actually serves hits.
        report = run_experiments(
            ["fig10"], scale=16.0, store=store, overrides=overrides
        )
        assert report.cache_hits() == ["fig10"]

    def test_null_nested_spec_is_a_scenario_error(self):
        payload = _single_job_scenario().to_dict()
        payload["machine"] = None
        with pytest.raises(ScenarioError, match="machine"):
            Scenario.from_dict(payload)
        with pytest.raises(ScenarioError, match="workload"):
            apply_overrides(_single_job_scenario(), {"workload": None})

    def test_wholesale_tuple_element_override_is_validated(self):
        scenario = _multijob_scenario()
        updated = apply_overrides(
            scenario, {"multijob.jobs.0": {"name": "X", "num_nodes": 4}}
        )
        assert isinstance(updated.multijob.jobs[0], JobScenarioSpec)
        assert updated.multijob.jobs[0].name == "X"
        with pytest.raises(ScenarioError, match="num_nodez"):
            apply_overrides(scenario, {"multijob.jobs.0": {"num_nodez": 4}})

    def test_integral_floats_coerce_and_fractions_are_rejected(self):
        spec = MachineSpec(kind="theta", num_nodes=64.0)
        assert spec.num_nodes == 64 and isinstance(spec.num_nodes, int)
        with pytest.raises(ScenarioError, match="integer"):
            MachineSpec(kind="theta", num_nodes=64.5)
        with pytest.raises(ScenarioError, match="integer"):
            apply_overrides(
                _single_job_scenario(), {"storage.stripe_count": 8.25}
            )

    def test_cache_key_tolerates_spec_valued_overrides(self):
        from repro.experiments.store import cache_key

        overrides = {"workload": WorkloadSpec(kind="ior")}
        key = cache_key("fig10", 8.0, overrides)
        assert key == cache_key("fig10", 8.0, overrides)
        assert key != cache_key("fig10", 8.0)

    def test_prune_removes_override_artifacts_by_base_id(self, tmp_path):
        from repro.experiments.runner import run_experiments
        from repro.experiments.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        run_experiments(["fig10"], scale=16.0, store=store)
        run_experiments(
            ["fig10"], scale=16.0, store=store, overrides={"io.buffer_size": 4 * MIB}
        )
        removed = store.prune(keep=[])
        assert any(stem.startswith("fig10@set-") for stem in removed)
        assert "fig10" in removed
        assert list(tmp_path.glob("*.json")) == [store.manifest_path]

    def test_override_of_a_swept_field_is_rejected(self):
        from repro.core.api import evaluate

        # io.kind is a sweep axis of fig10: a silent clobber would run the
        # unmodified experiment under an override cache key.
        with pytest.raises(ScenarioError, match="swept"):
            evaluate("fig10", scale=16.0, overrides={"io.kind": "mpiio"})
        with pytest.raises(ScenarioError, match="swept"):
            evaluate(
                "interference_alloc_policy",
                scale=16.0,
                overrides={"multijob.allocation_policy": "scattered"},
            )

    def test_placement_override_reaches_the_io_locality_ablation(self):
        from repro.core.api import evaluate

        stock = evaluate("ablation_io_locality", scale=16.0).result
        random_placement = evaluate(
            "ablation_io_locality",
            scale=16.0,
            overrides={"placement.strategy": "random", "placement.seed": 3},
        ).result
        stock_cost = stock.series_by_label("objective cost C1+C2 (ms)")
        random_cost = random_placement.series_by_label("objective cost C1+C2 (ms)")
        assert stock_cost.points != random_cost.points

    def test_incompatible_storage_override_is_a_scenario_error(self):
        from repro.core.api import evaluate

        with pytest.raises(ScenarioError, match="burst-buffer"):
            evaluate(
                "ablation_burst_buffer",
                scale=16.0,
                overrides={"storage.kind": "machine-default"},
            )
