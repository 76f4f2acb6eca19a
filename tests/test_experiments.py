"""Tests for the experiment harness (every figure/table at scales 8 and 1)."""

import pytest

from repro.core.api import evaluate
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    Series,
    list_experiments,
    run_experiments,
)

#: Scale divisor used in tests: node counts are divided by this to keep the
#: reduced-scale runs fast while preserving every qualitative check.
TEST_SCALE = 8.0


class TestResultContainers:
    def test_series_accessors(self):
        series = Series("demo")
        series.add(1.0, 5.0)
        series.add(2.0, 7.0)
        assert series.at(2.0) == 7.0
        assert series.xs() == [1.0, 2.0]
        assert series.max() == 7.0
        assert series.min() == 5.0
        with pytest.raises(KeyError):
            series.at(3.0)

    def test_experiment_result_table_and_checks(self):
        series = Series("curve")
        series.add(1.0, 2.0)
        result = ExperimentResult(
            experiment_id="demo",
            title="demo experiment",
            machine="nowhere",
            x_label="x",
            series=[series],
            checks={"always true": True, "always false": False},
        )
        assert not result.all_checks_pass()
        assert result.failed_checks() == ["always false"]
        rendering = result.render()
        assert "demo experiment" in rendering
        assert "FAIL" in rendering and "PASS" in rendering
        with pytest.raises(KeyError):
            result.series_by_label("missing")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = list_experiments()
        for required in (
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table1",
            "headline",
        ):
            assert required in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            evaluate("fig99")

    def test_run_all_subset(self):
        results = run_experiments(["table1", "fig10"], scale=TEST_SCALE).results()
        assert set(results) == {"table1", "fig10"}


@pytest.mark.parametrize("scale", (8.0, 1.0))
@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_checks_pass_at_scale(experiment_id, scale):
    """Every figure/table reproduction passes its qualitative checks.

    Checks are validated at two scale divisors: 8 (reduced node counts) and
    1 (the paper's own node counts).
    """
    result = evaluate(experiment_id, scale=scale).result
    assert isinstance(result, ExperimentResult)
    assert result.series, "experiment produced no series"
    empty = {series.label for series in result.series if not series.points}
    assert not empty, f"empty series: {sorted(empty)}"
    for series in result.series:
        for point in series.points:
            assert point.bandwidth_gbps >= 0
    assert result.all_checks_pass(), result.failed_checks()
    # The text rendering used by `repro run` must not raise.
    assert result.experiment_id in result.render()
