"""The tracked benchmark suite behind ``repro bench``.

Each benchmark measures one hot path of the reproduction and reports a
throughput number.  The placement, tuning and interference results keep
their numbers under a ``fast`` sub-object (the ``repro-bench-v1`` layout the
committed ``BENCH_*.json`` files and the history floors read).

The suite is deliberately cheap (seconds, not minutes): it exists to be run
on every PR — ``BENCH_5.json`` at the repository root is the first point of
the trajectory, and CI re-runs the suite at smoke scale with a throughput
floor so a regression on the placement path fails the build.

All benchmarks are model-level (no subprocesses): interpreter start-up and
imports are excluded, which is what makes the numbers comparable across
commits.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.obs.clock import timed as _timed

#: Schema tag written into every benchmark artifact.
BENCH_SCHEMA = "repro-bench-v1"

#: ``repro bench --history`` fails (exit 1) if the newest artifact's
#: placement throughput has regressed below this floor — the same floor CI
#: enforces on fresh runs.
PLACEMENT_FLOOR_CANDIDATES_PER_S = 1500.0


def _fresh_state() -> None:
    """Reset every cross-call cache so each measurement starts cold.

    A measurement must not borrow warmth from an earlier one: memoised
    machines carry the per-topology route/distance caches, and the
    block-mapping memo carries the default mappings.
    """
    from repro.scenario.simulation import clear_machine_cache
    from repro.topology.mapping import block_mapping

    clear_machine_cache()
    block_mapping.cache_clear()


def bench_placement(
    machine_kind: str = "theta",
    *,
    nodes: int = 512,
    num_aggregators: int = 8,
    ranks_per_node: int = 16,
) -> dict:
    """Topology-aware aggregator placement throughput (candidates/second).

    Builds a fresh machine, partitions a HACC-IO workload into
    ``num_aggregators`` partitions and elects aggregators at node
    granularity — the analytic models' hot loop.  With few aggregators every
    partition spans many nodes, which is the quadratic
    (candidates × senders) worst case the batched cost model is built for.
    """
    from repro.core.partitioning import build_partitions
    from repro.core.placement import place_aggregators
    from repro.core.topology_iface import TopologyInterface
    from repro.machine.mira import MiraMachine
    from repro.machine.theta import ThetaMachine
    from repro.topology.mapping import block_mapping
    from repro.workloads.hacc import HACCIOWorkload

    def run() -> tuple[int, float]:
        machine = (
            ThetaMachine(nodes) if machine_kind == "theta" else MiraMachine(nodes)
        )
        num_ranks = nodes * ranks_per_node
        workload = HACCIOWorkload(num_ranks, 25_000, layout="aos")
        mapping = block_mapping(num_ranks, machine.num_nodes, ranks_per_node)
        iface = TopologyInterface(machine, mapping)
        partitions = build_partitions(
            workload, num_aggregators, machine=machine, mapping=mapping
        )
        candidates = sum(
            len({mapping.node(rank) for rank in p.ranks}) for p in partitions
        )
        placement, wall = _timed(
            lambda: place_aggregators(
                partitions, iface, strategy="topology-aware", granularity="node"
            )
        )
        assert len(placement.aggregators) == len(partitions)
        return candidates, wall

    _fresh_state()
    candidates, wall = run()
    return {
        "machine": machine_kind,
        "nodes": nodes,
        "num_aggregators": num_aggregators,
        "candidates": candidates,
        "fast": {"wall_s": wall, "candidates_per_s": candidates / wall},
    }


def bench_placement_opt(
    *,
    exact_nodes: int = 32,
    anneal_nodes: int = 512,
    num_aggregators: int = 48,
    ranks_per_node: int = 16,
) -> dict:
    """Optimal-placement solver throughput (exact nodes/s, anneal flips/s).

    Two Theta instances of the coupled assignment problem from
    :mod:`repro.placement_opt`: a small one where branch-and-bound proves
    the optimum (more partitions than nodes, so co-location is forced and
    the search actually branches — throughput is explored search nodes per
    second), and a large one driven by the annealer (throughput is proposed
    flips per second).
    """
    from repro.core.partitioning import build_partitions
    from repro.core.topology_iface import TopologyInterface
    from repro.machine.theta import ThetaMachine
    from repro.placement_opt.anneal import anneal
    from repro.placement_opt.exact import branch_and_bound
    from repro.placement_opt.problem import (
        PlacementProblem,
        assignment_cost,
        greedy_choice,
    )
    from repro.topology.mapping import block_mapping
    from repro.workloads.hacc import HACCIOWorkload

    def problem_for(nodes: int) -> PlacementProblem:
        machine = ThetaMachine(nodes)
        num_ranks = nodes * ranks_per_node
        workload = HACCIOWorkload(num_ranks, 25_000, layout="aos")
        mapping = block_mapping(num_ranks, machine.num_nodes, ranks_per_node)
        iface = TopologyInterface(machine, mapping)
        partitions = build_partitions(
            workload, num_aggregators, machine=machine, mapping=mapping
        )
        return PlacementProblem.from_partitions(partitions, iface)

    def gap_percent(problem: PlacementProblem, cost: float) -> float:
        greedy_cost = assignment_cost(problem, greedy_choice(problem))
        if greedy_cost <= 0.0:
            return 0.0
        return 100.0 * max(0.0, (greedy_cost - cost) / greedy_cost)

    _fresh_state()
    exact_problem = problem_for(exact_nodes)
    exact_solution, exact_wall = _timed(lambda: branch_and_bound(exact_problem))
    _fresh_state()
    anneal_problem = problem_for(anneal_nodes)
    anneal_solution, anneal_wall = _timed(
        lambda: anneal(anneal_problem, seed=2017)
    )
    return {
        "exact": {
            "nodes": exact_nodes,
            "num_aggregators": num_aggregators,
            "nodes_explored": exact_solution.nodes_explored,
            "proven_optimal": exact_solution.proven_optimal,
            "gap_percent": gap_percent(exact_problem, exact_solution.cost_s),
            "wall_s": exact_wall,
            "nodes_per_s": exact_solution.nodes_explored / exact_wall,
        },
        "anneal": {
            "nodes": anneal_nodes,
            "num_aggregators": num_aggregators,
            "flips": anneal_solution.flips,
            "gap_percent": gap_percent(anneal_problem, anneal_solution.cost_s),
            "wall_s": anneal_wall,
            "flips_per_s": anneal_solution.flips / anneal_wall,
        },
    }


def bench_tune(
    target: str = "fig08", *, budget: int = 64, scale: float = 1.0
) -> dict:
    """Autotuning throughput (candidate points/second) on a registered target.

    This is the in-process counterpart of the CI ``repro tune fig08`` smoke
    step: a seeded random search over the target's suggested space, scored
    through the simulation facade, from cold caches.
    """
    from repro.autotune.defaults import as_tunable, suggest_space
    from repro.autotune.tuner import TuneTarget, Tuner
    from repro.scenario.registry import get_scenario

    def builder(divisor: float):
        return as_tunable(get_scenario(target, scale=divisor))

    def run() -> tuple[int, float]:
        base = builder(scale)
        tuner = Tuner(
            TuneTarget(name=base.id, builder=builder, scale=scale),
            suggest_space(base),
            None,
            jobs=1,
            seed=2017,
        )
        trace, wall = _timed(lambda: tuner.tune("random", budget))
        return len(trace.points), wall

    _fresh_state()
    points, wall = run()
    return {
        "target": target,
        "budget": budget,
        "scale": scale,
        "points": points,
        "fast": {"wall_s": wall, "points_per_s": points / wall},
    }


def bench_interference(
    *,
    flows: int = 64,
    rounds: int = 48,
    sweep_jobs: int = 64,
    sweep_mb_per_rank: int = 4096,
    sweep_slice_s: float = 0.25,
) -> dict:
    """Contention-engine throughput: ledger allocations/s and sweep wall time.

    Two measurements:

    - A water-filling microbenchmark on a synthetic ledger of ``flows``
      flows over ``4 * flows`` shared resources (64 × 256 by default).
      Every round drops a different flow from the active set, so each
      :meth:`allocate` is a genuine solve — the allocation memo never
      hits — and the number is allocations per second of the solver
      itself.
    - A staggered-arrival multi-job sweep on Theta: ``sweep_jobs`` IOR
      jobs with overlapping stripes, fluid-advanced to completion.  Here
      the allocation memo also pays off (the active set only changes at
      arrivals and completions), which is the shape the interference
      experiments actually execute.
    """
    import random

    from repro.core.config import TapiocaConfig
    from repro.machine.theta import ThetaMachine
    from repro.multijob import JobSpec, MultiJobRuntime
    from repro.multijob.contention import ContentionLedger
    from repro.utils.units import GB, MB, MIB
    from repro.workloads.ior import IORWorkload

    resources = 4 * flows
    names = [f"flow{index:03d}" for index in range(flows)]

    def build_ledger() -> ContentionLedger:
        rng = random.Random(2017)
        ledger = ContentionLedger()
        for index in range(resources):
            ledger.add_resource(("ost", index), (1.0 + index % 7) * GB)
        for index, name in enumerate(names):
            touched = rng.sample(range(resources), 1 + index % 24)
            share = 1.0 / len(touched)
            ledger.register_flow(
                name,
                demand=(0.5 + 4.0 * rng.random()) * GB,
                weights={("ost", ost): share for ost in touched},
            )
        return ledger

    def run_ledger() -> float:
        ledger = build_ledger()

        def solve_rounds() -> None:
            for round_index in range(rounds):
                drop = round_index % flows
                ledger.allocate(names[:drop] + names[drop + 1 :])

        _, wall = _timed(solve_rounds)
        return wall

    def run_sweep() -> tuple[float, float]:
        machine = ThetaMachine(4 * sweep_jobs)
        ranks = 4 * 16
        specs = [
            JobSpec(
                name=f"job{index:02d}",
                num_nodes=4,
                workload=IORWorkload(ranks, sweep_mb_per_rank * MB),
                ranks_per_node=16,
                config=TapiocaConfig(
                    num_aggregators=min(32, ranks), buffer_size=8 * MIB
                ),
                stripe=machine.stripe_for_job(
                    ost_start=2 * index, stripe_count=16, stripe_size=8 * MIB
                ),
                arrival_s=4.0 * index,
            )
            for index in range(sweep_jobs)
        ]
        runtime = MultiJobRuntime(machine, specs, slice_s=sweep_slice_s)
        report, wall = _timed(runtime.run)
        return report.makespan_s(), wall

    _fresh_state()
    ledger_wall = run_ledger()
    _fresh_state()
    makespan, sweep_wall = run_sweep()
    return {
        "flows": flows,
        "resources": resources,
        "rounds": rounds,
        "ledger": {
            "fast": {"wall_s": ledger_wall, "alloc_per_s": rounds / ledger_wall},
        },
        "sweep": {
            "jobs": sweep_jobs,
            "mb_per_rank": sweep_mb_per_rank,
            "slice_s": sweep_slice_s,
            "makespan_s": makespan,
            "fast": {"wall_s": sweep_wall},
        },
    }


def bench_run_all(*, scale: float = 8.0) -> dict:
    """Wall time of a sequential in-process sweep over every experiment."""
    from repro.experiments.runner import run_experiments

    _fresh_state()
    report, wall = _timed(lambda: run_experiments(scale=scale, jobs=1))
    return {
        "scale": scale,
        "experiments": len(report.outcomes),
        "all_checks_pass": report.all_checks_pass(),
        "wall_s": wall,
    }


def bench_serve(
    *,
    requests: int = 24,
    clients: int = 8,
    scale: float = 16.0,
    jobs: int = 1,
) -> dict:
    """Evaluation-daemon throughput: cold vs warm requests/second.

    Starts a real daemon (HTTP front end on a loopback port, backed by a
    throwaway artifact store) and drives it with a thread-pool of
    ``clients`` concurrent clients submitting ``requests`` *distinct*
    fig08-derived scenarios.  The first pass is cold — every request
    simulates; the second pass resubmits the identical scenarios and must
    be served entirely from the warm cache.  A final probe submits one
    scenario from ``clients`` threads at once and asserts the content-hash
    dedup collapsed them into a single evaluation.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.store import ArtifactStore
    from repro.scenario.registry import get_scenario
    from repro.serve import ServeClient, ServerThread
    from repro.utils.units import MIB

    base = get_scenario("fig08", scale=scale)
    payloads = [
        base.with_overrides({"io.buffer_size": (1 + index) * MIB}).to_dict()
        for index in range(requests)
    ]

    def drive(client: ServeClient) -> float:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            _, wall = _timed(lambda: list(pool.map(client.evaluate, payloads)))
        return wall

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(store=ArtifactStore(tmp), jobs=jobs) as server:
            client = ServeClient(server.url)
            cold_wall = drive(client)
            warm_wall = drive(client)
            stats_after_passes = client.stats()

            probe = base.with_overrides({"io.buffer_size": (requests + 1) * MIB})
            with ThreadPoolExecutor(max_workers=clients) as pool:
                list(pool.map(client.evaluate, [probe.to_dict()] * clients))
            stats = client.stats()

    evaluated_in_probe = stats["evaluated"] - stats_after_passes["evaluated"]
    assert stats_after_passes["evaluated"] == requests, "warm pass re-simulated"
    assert evaluated_in_probe == 1, "dedup probe evaluated more than once"
    return {
        "requests": requests,
        "clients": clients,
        "scale": scale,
        "jobs": jobs,
        "cold": {"wall_s": cold_wall, "requests_per_s": requests / cold_wall},
        "warm": {"wall_s": warm_wall, "requests_per_s": requests / warm_wall},
        "warm_speedup": cold_wall / warm_wall,
        "dedup": {"probe_clients": clients, "evaluations": evaluated_in_probe},
        "stats": {
            key: stats[key]
            for key in ("requests", "cache_hits", "deduped", "evaluated", "errors")
        },
    }


def run_serve_suite(
    *,
    requests: int = 24,
    clients: int = 8,
    scale: float = 16.0,
    jobs: int = 1,
    on_progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the serve load generator and assemble the ``BENCH_6.json`` payload."""
    from repro.experiments.store import git_sha

    if on_progress is not None:
        on_progress(
            f"serve: {requests} scenarios, {clients} clients, "
            f"scale {scale:g}, jobs {jobs}"
        )
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "requests": requests,
            "clients": clients,
            "scale": scale,
            "jobs": jobs,
        },
        "results": {
            "serve": bench_serve(
                requests=requests, clients=clients, scale=scale, jobs=jobs
            )
        },
    }


def run_suite(
    *,
    nodes: int = 512,
    num_aggregators: int = 8,
    tune_target: str = "fig08",
    tune_budget: int = 64,
    tune_scale: float = 1.0,
    run_all_scale: float = 8.0,
    interference_flows: int = 64,
    interference_rounds: int = 48,
    interference_jobs: int = 64,
    interference_mb: int = 4096,
    on_progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every benchmark and assemble the ``BENCH_*.json`` payload."""
    from repro.experiments.store import git_sha

    def progress(message: str) -> None:
        if on_progress is not None:
            on_progress(message)

    results: dict[str, dict] = {}
    for kind in ("theta", "mira"):
        progress(f"placement/{kind}: {nodes} nodes, {num_aggregators} aggregators")
        results[f"placement_{kind}"] = bench_placement(
            kind, nodes=nodes, num_aggregators=num_aggregators
        )
    progress("placement-opt: exact at 32 nodes, anneal at 512 nodes")
    results["placement_opt"] = bench_placement_opt()
    progress(f"tune/{tune_target}: budget {tune_budget} at scale {tune_scale:g}")
    results["tune"] = bench_tune(tune_target, budget=tune_budget, scale=tune_scale)
    progress(
        f"interference: {interference_flows} flows x {4 * interference_flows} "
        f"resources, {interference_jobs}-job sweep"
    )
    results["interference"] = bench_interference(
        flows=interference_flows,
        rounds=interference_rounds,
        sweep_jobs=interference_jobs,
        sweep_mb_per_rank=interference_mb,
    )
    progress(f"run-all at scale {run_all_scale:g}")
    results["run_all"] = bench_run_all(scale=run_all_scale)
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "nodes": nodes,
            "num_aggregators": num_aggregators,
            "tune_target": tune_target,
            "tune_budget": tune_budget,
            "tune_scale": tune_scale,
            "run_all_scale": run_all_scale,
            "interference_flows": interference_flows,
            "interference_rounds": interference_rounds,
            "interference_jobs": interference_jobs,
            "interference_mb": interference_mb,
        },
        "results": results,
    }


def render_suite(payload: dict) -> str:
    """Human-readable one-screen summary of a benchmark payload."""
    results = payload["results"]
    lines = [f"benchmark suite ({payload['schema']}, commit {payload['git_sha'] or '?'})"]
    for kind in ("theta", "mira"):
        entry = results.get(f"placement_{kind}")
        if entry is None:
            continue
        lines.append(
            f"  placement/{kind:<6} {entry['fast']['candidates_per_s']:>10,.0f} "
            f"candidates/s"
        )
    opt = results.get("placement_opt")
    if opt is not None:
        exact, annealed = opt["exact"], opt["anneal"]
        lines.append(
            f"  placement-opt/exact  {exact['nodes_per_s']:>7,.0f} nodes/s     "
            f"({exact['nodes_explored']:,} explored at {exact['nodes']} nodes, "
            f"{'proven' if exact['proven_optimal'] else 'UNPROVEN'}, "
            f"gap {exact['gap_percent']:.3f}%)"
        )
        lines.append(
            f"  placement-opt/anneal {annealed['flips_per_s']:>7,.0f} flips/s     "
            f"({annealed['flips']:,} flips at {annealed['nodes']} nodes, "
            f"gap {annealed['gap_percent']:.3f}%)"
        )
    tune = results.get("tune")
    if tune is not None:
        lines.append(
            f"  tune/{tune['target']:<11} {tune['fast']['points_per_s']:>10,.1f} "
            f"points/s"
        )
    interference = results.get("interference")
    if interference is not None:
        ledger = interference["ledger"]
        lines.append(
            f"  interference/ledger {ledger['fast']['alloc_per_s']:>8,.1f} alloc/s    "
            f"({interference['flows']} flows x {interference['resources']} "
            f"resources)"
        )
        sweep = interference["sweep"]
        lines.append(
            f"  interference/sweep  {sweep['fast']['wall_s']:>8.2f} s          "
            f"({sweep['jobs']} jobs, makespan {sweep['makespan_s']:,.0f} s)"
        )
    run_all = results.get("run_all")
    if run_all is not None:
        lines.append(
            f"  run-all           {run_all['wall_s']:>10.2f} s           "
            f"({run_all['experiments']} experiments at scale "
            f"{run_all['scale']:g}, checks "
            f"{'pass' if run_all['all_checks_pass'] else 'FAIL'})"
        )
    serve = results.get("serve")
    if serve is not None:
        lines.append(
            f"  serve/cold        {serve['cold']['requests_per_s']:>10,.1f} "
            f"requests/s    ({serve['requests']} scenarios, "
            f"{serve['clients']} clients, jobs {serve['jobs']})"
        )
        lines.append(
            f"  serve/warm        {serve['warm']['requests_per_s']:>10,.1f} "
            f"requests/s    (warm speedup {serve['warm_speedup']:.1f}x, "
            f"dedup {serve['dedup']['probe_clients']} -> "
            f"{serve['dedup']['evaluations']} evaluation)"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# History (``repro bench --history``)
# --------------------------------------------------------------------------- #

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class HistoryMetric:
    """One column of the benchmark trajectory.

    The single extraction table shared by ``repro bench --history`` and the
    ``repro dash`` dashboard: adding a metric here makes it appear in both
    (older BENCH files that predate it backfill as ``"-"``).

    Attributes:
        key: the row-dict key and CSV column stem.
        header: the rendered column header.
        path: the key path into a BENCH payload's ``results`` dict.
        fmt: ``str.format`` spec for table cells.
        floor: regression threshold, or ``None`` for unguarded metrics.
            With ``higher_is_better`` (the default) a value *below* the
            floor regresses; otherwise the floor is a ceiling (wall time).
        higher_is_better: direction of the metric.
    """

    key: str
    header: str
    path: tuple[str, ...]
    fmt: str = "{:,.1f}"
    floor: float | None = None
    higher_is_better: bool = True

    def extract(self, payload: dict):
        """This metric's value from a BENCH payload (``None`` if absent)."""
        node = payload.get("results", {})
        for part in self.path:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return node

    def breach(self, value: float | None) -> str | None:
        """A regression message if ``value`` crosses the floor, else ``None``."""
        if self.floor is None or value is None:
            return None
        if self.higher_is_better and value < self.floor:
            return (
                f"{self.header} {self.fmt.format(value)} is below the "
                f"{self.fmt.format(self.floor)} floor"
            )
        if not self.higher_is_better and value > self.floor:
            return (
                f"{self.header} {self.fmt.format(value)} is above the "
                f"{self.fmt.format(self.floor)} ceiling"
            )
        return None


#: The trajectory metrics, in column order.  Floors sit well below (or,
#: for wall time, above) every committed BENCH_*.json value, so they gate
#: order-of-magnitude regressions without flaking on shared-runner noise.
HISTORY_METRICS: tuple[HistoryMetric, ...] = (
    HistoryMetric(
        "placement_cand_per_s",
        "placement cand/s",
        ("placement_theta", "fast", "candidates_per_s"),
        "{:,.0f}",
        floor=PLACEMENT_FLOOR_CANDIDATES_PER_S,
    ),
    HistoryMetric(
        "opt_exact_nodes_per_s",
        "exact nodes/s",
        ("placement_opt", "exact", "nodes_per_s"),
        "{:,.0f}",
        floor=100_000.0,
    ),
    HistoryMetric(
        "opt_anneal_flips_per_s",
        "anneal flips/s",
        ("placement_opt", "anneal", "flips_per_s"),
        "{:,.0f}",
        floor=10_000.0,
    ),
    HistoryMetric(
        "tune_points_per_s",
        "tune points/s",
        ("tune", "fast", "points_per_s"),
        floor=30.0,
    ),
    HistoryMetric(
        "interference_alloc_per_s",
        "interference alloc/s",
        ("interference", "ledger", "fast", "alloc_per_s"),
        floor=50.0,
    ),
    HistoryMetric(
        "run_all_wall_s",
        "run-all wall s",
        ("run_all", "wall_s"),
        "{:.2f}",
        floor=60.0,
        higher_is_better=False,
    ),
    HistoryMetric(
        "serve_cold_req_per_s",
        "serve req/s",
        ("serve", "cold", "requests_per_s"),
        floor=20.0,
    ),
)


def load_history(
    root: str | Path = ".", *, on_warning=None
) -> list[tuple[str, dict]]:
    """Every ``BENCH_<n>.json`` under ``root``, ordered by ``n``.

    Returns ``(filename, payload)`` pairs.  Files with corrupt JSON, a
    non-object payload, or a missing/unknown ``schema`` key are skipped —
    the history must survive one bad artifact — with a one-line warning
    per skip through ``on_warning`` (a ``callable(str)``; ``None`` skips
    silently, preserving the historical behaviour).
    """

    def warn(message: str) -> None:
        if on_warning is not None:
            on_warning(message)

    entries: list[tuple[int, str, dict]] = []
    for path in Path(root).iterdir():
        match = _BENCH_NAME.match(path.name)
        if match is None:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            warn(f"skipping {path.name}: unreadable JSON ({exc})")
            continue
        if not isinstance(payload, dict):
            warn(f"skipping {path.name}: payload is not a JSON object")
            continue
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA:
            warn(
                f"skipping {path.name}: "
                + (
                    "missing schema key"
                    if schema is None
                    else f"unknown schema {schema!r}"
                )
            )
            continue
        entries.append((int(match.group(1)), path.name, payload))
    return [(name, payload) for _, name, payload in sorted(entries)]


def history_row(name: str, payload: dict) -> dict:
    """One trajectory point: the headline number of each benchmark.

    Keys are ``None`` where an artifact predates a benchmark (the serve
    suite, for instance, only exists from ``BENCH_6`` on).
    """
    row = {
        "name": name,
        "git_sha": payload.get("git_sha") or "?",
        "created_utc": payload.get("created_utc") or "?",
    }
    for metric in HISTORY_METRICS:
        row[metric.key] = metric.extract(payload)
    return row


def render_history(rows: list[dict], *, as_csv: bool = False) -> str:
    """The benchmark trajectory as a table (or CSV with ``as_csv``)."""
    columns = [("name", "artifact", "{}"), ("git_sha", "commit", "{}")] + [
        (metric.key, metric.header, metric.fmt) for metric in HISTORY_METRICS
    ]

    def cell(row: dict, key: str, fmt: str) -> str:
        value = row.get(key)
        if value is None:
            return "-"
        return fmt.format(value)

    if as_csv:
        lines = [",".join(header for _, header, _ in columns)]
        for row in rows:
            lines.append(
                ",".join(cell(row, key, fmt).replace(",", "") for key, _, fmt in columns)
            )
        return "\n".join(lines)

    table = [[header for _, header, _ in columns]]
    for row in rows:
        table.append([cell(row, key, fmt) for key, _, fmt in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    rendered = []
    for index, line in enumerate(table):
        rendered.append(
            "  ".join(text.rjust(widths[i]) for i, text in enumerate(line))
        )
        if index == 0:
            rendered.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(rendered)


def history_regressions(
    rows: list[dict], *, floor: float = PLACEMENT_FLOOR_CANDIDATES_PER_S
) -> list[str]:
    """Human-readable regression messages for the latest trajectory points.

    Every metric in :data:`HISTORY_METRICS` that declares a floor is gated
    against the newest row that records it — BENCH artifacts are partial
    (a serve-only artifact carries no placement number), so each metric
    finds its own latest observation.  ``floor`` overrides the placement
    throughput floor for back-compat with the original single-gate API.
    An empty list means the history is clean.
    """
    problems: list[str] = []
    for metric in HISTORY_METRICS:
        if metric.key == "placement_cand_per_s":
            metric = replace(metric, floor=floor)
        if metric.floor is None:
            continue
        latest = next(
            (row for row in reversed(rows) if row.get(metric.key) is not None),
            None,
        )
        if latest is None:
            continue
        message = metric.breach(latest[metric.key])
        if message is not None:
            problems.append(f"{latest['name']}: {message}")
    return problems
