"""The benchmark's four workloads: seeded inputs, timed calls, output checks.

Each builder runs in the benchmark's set-up phase.  It imports the program,
generates the workload's inputs from the seed and returns a :class:`Plan`:
a list of :class:`Op`, each one timed call into a public entry point of
the program plus the check of its output.  The program only ever sees the
generated inputs.  Builders import ``repro`` lazily so that set-up can be
repeated (and timed) from a clean import.

All four workloads are single-process, single-thread and closed-loop: the
next call is issued only after the previous one returned.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable


@dataclass
class Outcome:
    """The checked result of one op.

    Attributes:
        ok: whether every output check passed.
        reason: why the op failed (empty when ``ok``).
        record: the op's simulated outputs, folded into the output digest.
    """

    ok: bool
    reason: str = ""
    record: Any = None


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``before`` runs untimed ahead of ``call`` (e.g. dropping program caches
    at the start of a cold sweep).
    """

    label: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    before: Callable[[], None] | None = None


@dataclass
class Plan:
    """A workload's generated inputs, ready to run."""

    ops: list[Op]
    facts: dict[str, Any] = field(default_factory=dict)


def clear_program_caches() -> None:
    """Drop every ``functools`` cache held by a ``repro`` module."""
    seen: set[int] = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info") and id(value) not in seen:
                seen.add(id(value))
                clear()


def _evaluate(*args, **kwargs):
    """``repro.core.api.evaluate``, looked up per call so a tracer's wrapper applies."""
    from repro.core import api

    return api.evaluate(*args, **kwargs)


def _failed_checks(result) -> list[str]:
    return [name for name, passed in result.checks.items() if not passed]


def _check_result(evaluation) -> Outcome:
    """An experiment or scenario result passes when all its checks pass."""
    result = evaluation.result
    failed = _failed_checks(result)
    return Outcome(
        ok=not failed,
        reason=f"failed checks: {failed}" if failed else "",
        record=result.to_dict(),
    )


# --------------------------------------------------------------------------- #
# paper_scale: every registered experiment at the paper's node counts
# --------------------------------------------------------------------------- #


def paper_scale(seed: int, size: int, workdir: Path) -> Plan:
    """``size`` cold sweeps of every registered experiment at ``scale=1``.

    The inputs are the registry itself, so ``seed`` does not change them.
    Program caches are dropped before each sweep.
    """
    from repro.experiments.harness import list_experiments

    ids = list_experiments()
    ops = [
        Op(
            label=f"{experiment_id}#{sweep}",
            kind="experiment",
            call=partial(_evaluate, experiment_id, scale=1, jobs=1, store=None),
            check=_check_result,
            before=clear_program_caches if index == 0 else None,
        )
        for sweep in range(size)
        for index, experiment_id in enumerate(ids)
    ]
    return Plan(ops, {"experiments": len(ids), "sweeps": size})


# --------------------------------------------------------------------------- #
# scenario_stream: evaluate() calls against a fresh SQLite store
# --------------------------------------------------------------------------- #

#: Share of calls that re-submit an earlier payload (store hits).
RESUBMIT_SHARE = 0.25

#: Node-count divisors applied to every registered single-job scenario.
STREAM_DIVISORS = range(2, 33)

#: Search-space draws tried per deck entry for a valid, not yet seen point.
MAX_POINT_DRAWS = 200


def stream_payloads(seed: int, count: int) -> tuple[list[tuple[str, dict]], int]:
    """``count`` distinct single-job payloads keyed by content hash.

    The payloads walk a deck of every registered single-job scenario at
    every divisor in ``STREAM_DIVISORS``, each with one seeded point of its
    default autotune search space applied, and come back in seeded order.
    The deck is built in a fixed order and is the same for every seed, so
    neither set-up nor the run's amount of work depends much on the seed.
    Also returns the number of distinct machine shapes.
    """
    import numpy as np
    from repro.autotune.defaults import as_tunable, suggest_space
    from repro.scenario.registry import get_scenario, scenario_ids
    from repro.scenario.spec import ScenarioError

    np_rng = np.random.default_rng(seed)
    names = [
        name for name in scenario_ids() if get_scenario(name, scale=32).multijob is None
    ]
    deck = itertools.cycle([(name, divisor) for name in names for divisor in STREAM_DIVISORS])
    payloads: dict[str, dict] = {}
    machines: set[str] = set()
    while len(payloads) < count:
        name, divisor = next(deck)
        base = as_tunable(get_scenario(name, scale=divisor))
        space = suggest_space(base)
        for _attempt in range(MAX_POINT_DRAWS):
            try:
                scenario = space.apply(base, space.sample(np_rng))
            except ScenarioError:
                continue
            if scenario.content_hash() not in payloads:
                payloads[scenario.content_hash()] = payload = scenario.to_dict()
                machines.add(json.dumps(payload["machine"], sort_keys=True))
                break
    items = list(payloads.items())
    random.Random(seed).shuffle(items)
    return items, len(machines)


def scenario_stream(seed: int, size: int, workdir: Path) -> Plan:
    """``size`` ``evaluate(payload, store=...)`` calls, a quarter of them repeats.

    A first submission is a store miss (evaluate, then store write); a
    re-submission must be a store hit returning the identical result.
    """
    import repro.core.api  # noqa: F401  (import cost belongs to set-up)
    from repro.experiments.store import ArtifactStore

    rng = random.Random(seed ^ 0x5EED)
    hits = int(size * RESUBMIT_SHARE)
    repeats = [False] * (size - hits - 1) + [True] * hits
    rng.shuffle(repeats)
    repeats.insert(0, False)
    distinct, machine_shapes = stream_payloads(seed, size - hits)

    store_dir = workdir / "stream-store"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ArtifactStore.from_spec(f"sqlite:{store_dir / 'store.db'}")
    store.backend.put("bench/created", "{}")  # create the database in set-up
    store.backend.delete("bench/created")

    stored: dict[str, Any] = {}

    def check(key: str, expect_hit: bool, evaluation) -> Outcome:
        outcome = _check_result(evaluation)
        if evaluation.cached != expect_hit:
            expected = "hit" if expect_hit else "miss"
            return Outcome(False, f"expected a store {expected}, got cached={evaluation.cached}")
        if expect_hit and outcome.record != stored[key]:
            return Outcome(False, "store hit differs from the stored result")
        stored.setdefault(key, outcome.record)
        outcome.record = [key, outcome.record]
        return outcome

    ops = []
    fresh = iter(distinct)
    submitted: list[tuple[str, dict]] = []
    for index, repeat in enumerate(repeats):
        key, payload = rng.choice(submitted) if repeat else next(fresh)
        if not repeat:
            submitted.append((key, payload))
        ops.append(
            Op(
                label=f"{payload['id']}@{key[:8]}#{index}",
                kind="hit" if repeat else "miss",
                call=partial(_evaluate, payload, store=store),
                check=partial(check, key, repeat),
            )
        )
    return Plan(
        ops,
        {"distinct_payloads": len(distinct), "machine_shapes": machine_shapes},
    )


# --------------------------------------------------------------------------- #
# contention_mix: multi-job scenarios sharing OSTs and burst-buffer drains
# --------------------------------------------------------------------------- #

MIX_MACHINE_NODES = 1024
MIX_JOBS = (32, 96)
MIX_JOB_NODES = (2, 8)
MIX_ARRIVAL_SPAN_S = 3.0
MIX_BURST_BUFFER_SHARE = 0.15
THETA_OSTS = 56


def _mix_job(rng: random.Random, index: int) -> dict:
    workload: dict[str, Any] = {
        "kind": rng.choice(("ior", "hacc")),
        "access": rng.choice(("write", "read")),
        "bytes_per_rank": rng.choice((1, 2, 4, 8)) * 1_000_000,
        "particles_per_rank": rng.choice((5_000, 25_000, 50_000)),
    }
    if workload["kind"] == "hacc":
        workload["layout"] = rng.choice(("aos", "soa"))
    if rng.random() < MIX_BURST_BUFFER_SHARE:
        storage = {
            "kind": "burst-buffer",
            "name": f"bb{rng.randint(0, 1)}",
            "drain_gbps": rng.choice((1.0, 2.0, 4.0)),
        }
    else:
        # Overlapping OST ranges: narrow stripes anchored anywhere.
        storage = {
            "kind": "lustre",
            "stripe_count": rng.choice((2, 4, 8)),
            "ost_start": rng.randrange(THETA_OSTS),
        }
    return {
        "name": f"J{index}",
        "num_nodes": rng.randint(*MIX_JOB_NODES),
        "workload": workload,
        "io": {
            "kind": "tapioca",
            "num_aggregators": rng.choice((1, 2, 4, 8)),
            "buffer_size": rng.choice((4, 8, 16)) * 1_048_576,
        },
        "storage": storage,
        "arrival_s": round(rng.uniform(0.0, MIX_ARRIVAL_SPAN_S), 3),
    }


def contention_payloads(seed: int, count: int) -> list[dict]:
    """``count`` seeded multi-job scenario payloads on a shared Theta.

    Job counts are spread evenly over ``MIX_JOBS`` and allocation policies
    taken in turn, then the scenarios are shuffled, so the amount of work
    barely depends on the seed; the jobs themselves are drawn at random.
    """
    from repro.scenario.spec import ALLOCATION_POLICIES

    rng = random.Random(seed)
    low, high = MIX_JOBS
    shapes = [
        (low + (high - low) * index // max(1, count - 1),
         ALLOCATION_POLICIES[index % len(ALLOCATION_POLICIES)])
        for index in range(count)
    ]
    rng.shuffle(shapes)
    payloads = []
    for index, (num_jobs, policy) in enumerate(shapes):
        payloads.append(
            {
                "id": f"contention_mix/{seed}/{index}",
                "machine": {"kind": "theta", "num_nodes": MIX_MACHINE_NODES},
                "workload": {"kind": "ior"},
                "io": {"kind": "tapioca"},
                "multijob": {
                    "jobs": [_mix_job(rng, job) for job in range(num_jobs)],
                    "allocation_policy": policy,
                },
            }
        )
    return payloads


def contention_mix(seed: int, size: int, workdir: Path) -> Plan:
    """``size`` multi-job scenarios through ``evaluate()``, no store.

    A result passes when the ledger conserved bandwidth (its check); a
    ``StarvedFlowError`` or any other exception fails the op.
    """
    import repro.core.api  # noqa: F401  (import cost belongs to set-up)

    payloads = contention_payloads(seed, size)
    ops = [
        Op(
            label=payload["id"],
            kind="evaluate",
            call=partial(_evaluate, payload),
            check=_check_result,
        )
        for payload in payloads
    ]
    jobs = sum(len(payload["multijob"]["jobs"]) for payload in payloads)
    return Plan(ops, {"scenarios": size, "jobs": jobs})


# --------------------------------------------------------------------------- #
# des_roundtrip: discrete-event TAPIOCA write, then read of the same file
# --------------------------------------------------------------------------- #

DES_MACHINES = (("theta", 8), ("theta", 16), ("mira", 16), ("mira", 32))
DES_WORKLOADS = ("hacc-aos", "hacc-soa", "ior")
DES_AGGREGATORS = (2, 4, 8)
DES_HACC_PARTICLES = (35, 45)
DES_IOR_TRANSFERS = (2048, 2560, 3072)
DES_BUFFERS = (16 * 1024, 32 * 1024, 64 * 1024)
DES_PATH = "/out/roundtrip.dat"


@dataclass(frozen=True)
class Cell:
    """One DES round-trip configuration."""

    machine: str
    nodes: int
    workload: str
    size: int  # particles per rank (HACC) or transfer bytes (IOR)
    aggregators: int
    buffer_size: int


def des_cells(seed: int, count: int) -> list[Cell]:
    """``count`` seeded small DES cells.

    The cells walk a deck of every machine x workload x aggregator count;
    the seed shuffles the deck, rotates which buffer size goes with which
    entry, and draws each cell's per-rank size from a narrow band.  The
    deck keeps the amount of work close to the same for every seed.
    """
    rng = random.Random(seed)
    deck = list(itertools.product(DES_MACHINES, DES_WORKLOADS, DES_AGGREGATORS))
    cells = []
    while len(cells) < count:
        rng.shuffle(deck)
        for index, ((machine, nodes), workload, aggregators) in enumerate(deck):
            if len(cells) == count:
                break
            if workload == "ior":
                size = rng.choice(DES_IOR_TRANSFERS)
            else:
                size = rng.randint(*DES_HACC_PARTICLES)
            buffer_size = DES_BUFFERS[(index + seed) % len(DES_BUFFERS)]
            cells.append(Cell(machine, nodes, workload, size, aggregators, buffer_size))
    return cells


def _des_build(cell: Cell):
    """The machine and declared workload of a cell (program objects)."""
    from repro.machine.mira import MiraMachine
    from repro.machine.theta import ThetaMachine
    from repro.workloads.hacc import HACCIOWorkload
    from repro.workloads.ior import IORWorkload

    if cell.machine == "mira":
        machine = MiraMachine(cell.nodes, pset_size=cell.nodes // 2)
    else:
        machine = ThetaMachine(cell.nodes)
    ranks = cell.nodes * machine.default_ranks_per_node
    if cell.workload == "ior":
        workload = IORWorkload(ranks, transfer_size=cell.size)
    else:
        layout = cell.workload.split("-")[1]
        workload = HACCIOWorkload(ranks, particles_per_rank=cell.size, layout=layout)
    return machine, workload


def des_write(cell: Cell, state: dict) -> dict:
    """Run the TAPIOCA write of ``cell`` on a fresh world."""
    from repro.core.config import TapiocaConfig
    from repro.core.runtime import TapiocaIO
    from repro.simmpi.world import SimWorld

    machine, workload = _des_build(cell)
    config = TapiocaConfig(num_aggregators=cell.aggregators, buffer_size=cell.buffer_size)
    world = SimWorld(machine, num_nodes=cell.nodes)
    writer = TapiocaIO(world, workload, config, path=DES_PATH)
    result = world.run(writer.write_program())
    state.update(machine=machine, workload=workload, config=config, files=result.files)
    return {"result": result, "elected": dict(writer.elected), "workload": workload}


def des_read(cell: Cell, state: dict) -> dict:
    """Read back the file the write of ``cell`` left, on a fresh world."""
    from repro.core.runtime import TapiocaIO
    from repro.simmpi.world import SimWorld

    world = SimWorld(state["machine"], num_nodes=cell.nodes)
    world.files = state["files"]
    reader = TapiocaIO(world, state["workload"], state["config"], path=DES_PATH)
    result = world.run(reader.read_program())
    return {"result": result, "workload": state["workload"]}


def check_des_write(cell: Cell, state: dict, output: dict) -> Outcome:
    """The written file must equal the workload's expected image."""
    result, workload = output["result"], output["workload"]
    record = {
        "cell": vars(cell),
        "elapsed": result.elapsed,
        "elected": sorted(output["elected"].items()),
    }
    state["expected"] = expected = workload.expected_file_image()
    if result.files.open(DES_PATH, create=False).as_bytes() != expected:
        return Outcome(False, "written file differs from the expected image", record=record)
    return Outcome(True, record=record)


def check_des_read(cell: Cell, state: dict, output: dict) -> Outcome:
    """Every rank must read back exactly the bytes it declared."""
    result, workload = output["result"], output["workload"]
    expected = state.get("expected") or workload.expected_file_image()
    state.clear()  # release the cell's world and file before the next cell
    record = {"elapsed": result.elapsed}
    for rank, received in enumerate(result.returns):
        for segment in workload.segments_for_rank(rank):
            if segment.nbytes and received.get(segment.offset) != expected[segment.offset:segment.end]:
                return Outcome(
                    False, f"rank {rank} read wrong bytes at offset {segment.offset}",
                    record=record,
                )
    return Outcome(True, record=record)


def des_roundtrip(seed: int, size: int, workdir: Path) -> Plan:
    """``size`` cells, each a DES write op followed by a DES read op."""
    import repro.core.runtime  # noqa: F401  (import cost belongs to set-up)
    import repro.machine.mira  # noqa: F401
    import repro.machine.theta  # noqa: F401
    import repro.simmpi.world  # noqa: F401
    import repro.workloads.hacc  # noqa: F401
    import repro.workloads.ior  # noqa: F401

    ops = []
    for index, cell in enumerate(des_cells(seed, size)):
        state: dict = {}
        label = f"{cell.machine}{cell.nodes}-{cell.workload}#{index}"
        ops.append(Op(f"{label}/write", "write", partial(des_write, cell, state),
                      partial(check_des_write, cell, state)))
        ops.append(Op(f"{label}/read", "read", partial(des_read, cell, state),
                      partial(check_des_read, cell, state)))
    return Plan(ops, {"cells": size})


#: Workload name -> builder(seed, size, workdir) -> Plan.
BUILDERS: dict[str, Callable[..., Plan]] = {
    "paper_scale": paper_scale,
    "scenario_stream": scenario_stream,
    "contention_mix": contention_mix,
    "des_roundtrip": des_roundtrip,
}

#: Work units per requested second on the reference host (sweeps, calls,
#: scenarios, cells).  The unit count is a pure function of ``--seconds``,
#: so every commit measures the same fixed amount of work.
UNITS_PER_SECOND = {
    "paper_scale": 0.1,
    "scenario_stream": 74.4,
    "contention_mix": 3.0,
    "des_roundtrip": 3.6,
}


def units_for(workload: str, seconds: int) -> int:
    """The fixed amount of work a run of ``seconds`` performs."""
    return max(1, round(UNITS_PER_SECOND[workload] * seconds))
