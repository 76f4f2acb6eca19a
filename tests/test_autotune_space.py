"""Tests for search-space construction and its interaction with Sweeps."""

import pytest

from repro.autotune import (
    AutotuneError,
    Categorical,
    LogBytes,
    SearchSpace,
    linked,
)
from repro.scenario.spec import Scenario, ScenarioError
from repro.scenario.sweep import Sweep, axis, zipped
from repro.utils.rng import seeded_rng
from repro.utils.units import MIB


def small_space() -> SearchSpace:
    return SearchSpace(
        Categorical("storage.stripe_count", (1, 8, 48)),
        Categorical("io.shared_locks", (False, True)),
    )


class TestDomains:
    def test_log_bytes_ladder(self):
        domain = LogBytes("io.buffer_size", 1 * MIB, 16 * MIB)
        assert domain.values == tuple(n * MIB for n in (1, 2, 4, 8, 16))

    def test_log_bytes_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            LogBytes("io.buffer_size", 16 * MIB, 1 * MIB)
        with pytest.raises(ValueError):
            LogBytes("io.buffer_size", 0, 1 * MIB)

    def test_domain_rejects_duplicate_values(self):
        with pytest.raises(AutotuneError, match="duplicate values"):
            Categorical("io.shared_locks", (True, True))

    def test_sampling_is_uniform_over_fragments(self):
        domain = Categorical("storage.stripe_count", (1, 8, 48))
        rng = seeded_rng(3)
        drawn = {domain.sample(rng)["storage.stripe_count"] for _ in range(50)}
        assert drawn == {1, 8, 48}

    def test_linked_requires_equal_lengths(self):
        with pytest.raises(AutotuneError, match="equal lengths"):
            linked(
                Categorical("a.b", (1, 2)),
                Categorical("c.d", (1, 2, 3)),
            )

    def test_linked_merges_fragments_in_lockstep(self):
        group = linked(
            LogBytes("storage.stripe_size", 1 * MIB, 4 * MIB),
            LogBytes("io.buffer_size", 1 * MIB, 4 * MIB),
        )
        fragments = group.fragments()
        assert len(fragments) == 3
        assert all(
            fragment["storage.stripe_size"] == fragment["io.buffer_size"]
            for fragment in fragments
        )


class TestSearchSpace:
    def test_size_and_grid_order(self):
        space = small_space()
        points = list(space.grid())
        assert space.size() == len(points) == 6
        # Last domain varies fastest, like a Sweep.
        assert [p["io.shared_locks"] for p in points[:2]] == [False, True]

    def test_duplicate_field_rejected(self):
        with pytest.raises(AutotuneError, match="duplicate search domain"):
            SearchSpace(
                Categorical("io.buffer_size", (1 * MIB,)),
                LogBytes("io.buffer_size", 1 * MIB, 4 * MIB),
            )

    def test_duplicate_field_inside_linked_group_rejected(self):
        with pytest.raises(AutotuneError, match="duplicate search domain"):
            SearchSpace(
                Categorical("io.buffer_size", (1 * MIB,)),
                linked(
                    LogBytes("io.buffer_size", 1 * MIB, 2 * MIB),
                    LogBytes("storage.stripe_size", 1 * MIB, 2 * MIB),
                ),
            )

    def test_reject_overrides_on_searched_field(self):
        with pytest.raises(AutotuneError, match="storage.stripe_count"):
            small_space().reject_overrides({"storage.stripe_count": 8})

    def test_reject_overrides_passes_unrelated_keys(self):
        small_space().reject_overrides({"workload.bytes_per_rank": 1 * MIB})
        small_space().reject_overrides(None)

    def test_validate_on_surfaces_did_you_mean(self):
        space = SearchSpace(Categorical("io.bufer_size", (1 * MIB,)))
        with pytest.raises(ScenarioError, match="did you mean"):
            space.validate_on(Scenario(id="s"))

    def test_apply_filters_through_scenario_validation(self):
        space = SearchSpace(Categorical("workload.iterations", (0, 1)))
        base = Scenario(id="s")
        with pytest.raises(ScenarioError):
            space.apply(base, {"workload.iterations": 0})
        assert space.apply(base, {"workload.iterations": 1}).workload.iterations == 1

    def test_describe_is_json_friendly(self):
        description = small_space().describe()
        assert description["storage.stripe_count"] == [1, 8, 48]
        assert description["io.shared_locks"] == [False, True]


class TestFromSweep:
    def test_axes_become_categorical_domains(self):
        sweep = Sweep(
            axis("io.kind", ("tapioca", "mpiio")),
            axis("workload.bytes_per_rank", (1 * MIB, 2 * MIB)),
        )
        space = SearchSpace.from_sweep(sweep)
        assert space.fields() == ("io.kind", "workload.bytes_per_rank")
        assert space.size() == sweep.size() == 4
        assert [p for p in space.grid()] == sweep.overrides()

    def test_zipped_axes_become_linked_domains(self):
        sweep = Sweep(
            zipped(
                axis("storage.stripe_size", (1 * MIB, 2 * MIB)),
                axis("io.buffer_size", (1 * MIB, 2 * MIB)),
            )
        )
        space = SearchSpace.from_sweep(sweep)
        assert space.size() == 2
        assert [p for p in space.grid()] == sweep.overrides()

    def test_extra_domain_colliding_with_axis_is_rejected(self):
        sweep = Sweep(axis("io.kind", ("tapioca", "mpiio")))
        with pytest.raises(AutotuneError, match="duplicate search domain"):
            SearchSpace.from_sweep(sweep, Categorical("io.kind", ("mpiio",)))

    def test_extra_domains_extend_the_sweep(self):
        sweep = Sweep(axis("io.kind", ("tapioca", "mpiio")))
        space = SearchSpace.from_sweep(
            sweep, Categorical("io.shared_locks", (False, True))
        )
        assert space.size() == 4

