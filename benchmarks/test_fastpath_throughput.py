"""Benchmark: placement and tuning throughput.

The counterpart of ``repro bench`` inside the pytest benchmark suite: the
same placement and tuning measurements (see
:mod:`repro.experiments.bench`), with conservative absolute floors so a
regression on the batched cost model or the routing caches fails even on
slow CI machines.
"""

from __future__ import annotations

from repro.experiments.bench import bench_placement, bench_tune

#: Placement throughput floor (candidates/second).  The batched cost model
#: clears ~14k candidates/s on a laptop-class core at 512 nodes; 1,500
#: leaves an order of magnitude for slower CI hardware while still sitting
#: well above the per-candidate evaluation rate (~750-2,000/s).
MIN_PLACEMENT_CANDIDATES_PER_SECOND = 1_500.0

#: Tuning throughput floor (points/second) at smoke scale.
MIN_TUNE_POINTS_PER_SECOND = 20.0


def test_placement_fastpath_throughput(benchmark):
    entry = benchmark.pedantic(
        bench_placement,
        args=("theta",),
        kwargs={"nodes": 512, "num_aggregators": 8},
        rounds=1,
        iterations=1,
    )
    rate = entry["fast"]["candidates_per_s"]
    print()
    print(f"placement: {rate:,.0f} candidates/s")
    assert rate >= MIN_PLACEMENT_CANDIDATES_PER_SECOND, (
        f"placement throughput regressed: {rate:,.0f} candidates/s "
        f"(floor: {MIN_PLACEMENT_CANDIDATES_PER_SECOND:,.0f})"
    )


def test_tune_fastpath_throughput(benchmark):
    entry = benchmark.pedantic(
        bench_tune,
        args=("fig08",),
        kwargs={"budget": 16, "scale": 8.0},
        rounds=1,
        iterations=1,
    )
    rate = entry["fast"]["points_per_s"]
    print()
    print(f"tuning: {rate:,.1f} points/s")
    assert entry["points"] == 16
    assert rate >= MIN_TUNE_POINTS_PER_SECOND, (
        f"tuning throughput regressed: {rate:,.1f} points/s "
        f"(floor: {MIN_TUNE_POINTS_PER_SECOND})"
    )
