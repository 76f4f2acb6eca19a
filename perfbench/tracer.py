"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer where the
program looks them up: every ``repro`` module attribute bound to a wrapped
function and, for methods, the defining class and each subclass overriding
the method.  Nothing inside ``src/`` changes; :meth:`Tracer.uninstall`
restores the originals.

Each span has a name (its layer), start, end, parent span and the op it
belongs to, kept in memory.  A layer's self time is its spans' duration
minus the part their child spans cover.  A call into the layer that is
already on top of the stack (a method calling its base-class version, or
``place_aggregators`` calling ``best_candidate``) is folded into the open
span, but its counters still count.  Span times are wall-clock; the
process is single-threaded and CPU-bound, so they track CPU time, and the
store layer also records CPU time to report how long it waited.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench.measure import cpu_now

#: Spans shorter than this are aggregated into the tables but not kept as
#: records for the Chrome trace (hot leaf calls would otherwise flood it).
MIN_RECORD_S = 50e-6

#: Upper bound on span records kept in memory.
MAX_RECORDS = 200_000

#: Layers whose self time is the entry point's own envelope, not a layer
#: below it; ``trace.coverage`` counts time in any other layer.
ENVELOPE_LAYERS = ("api", "runner")


@dataclass
class _Frame:
    layer: str
    span_id: int
    start: float
    child_s: float = 0.0


@dataclass
class Hook:
    """Counters taken around one wrapped call.

    ``pre(args, kwargs)`` returns a token; ``post(tracer, token, args,
    kwargs, result, duration_s)`` updates ``tracer.counts``.
    """

    pre: Callable[[tuple, dict], Any] | None = None
    post: Callable[..., None] | None = None


@dataclass
class Target:
    """One wrapped function: ``module.name`` or ``module.Class.name``."""

    layer: str
    module: str
    name: str
    cls: str | None = None
    hook: Hook = field(default_factory=Hook)

    @property
    def key(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


class Tracer:
    """Install span wrappers, record spans for the current op, summarise."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.records: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target that the imported program defines."""
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                continue
            if target.cls is None:
                original = getattr(module, target.name, None)
                if original is None:
                    continue
                wrapper = self._wrap(target, original)
                for other in _repro_modules():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)
                continue
            base = getattr(module, target.cls, None)
            if base is None:
                continue
            for cls in _with_subclasses(base):
                raw = cls.__dict__.get(target.name)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patch(cls, target.name, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer, key, hook = target.layer, target.key, target.hook
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            token = hook.pre(args, kwargs) if hook.pre else None
            if stack and stack[-1].layer == layer:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                if hook.post:
                    hook.post(self, token, args, kwargs, result, time.perf_counter() - start)
                return result
            self._next_id += 1
            frame = _Frame(layer, self._next_id, time.perf_counter())
            parent = stack[-1].span_id if stack else 0
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                self.self_s[(layer, key)] += duration - frame.child_s
                if stack:
                    stack[-1].child_s += duration
                if duration >= MIN_RECORD_S:
                    if len(self.records) < MAX_RECORDS:
                        self.records.append(
                            (layer, key, frame.start, end, frame.span_id, parent, self.op)
                        )
                    else:
                        self.dropped += 1
            if hook.post:
                hook.post(self, token, args, kwargs, result, duration)
            return result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self) -> None:
        self.op = None

    # -- summaries -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer."""
        totals: dict[str, float] = defaultdict(float)
        for (layer, _key), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(totals)

    def function_self_s(self, layer: str, key: str) -> float:
        return self.self_s.get((layer, key), 0.0)

    def write_chrome_trace(self, path: Path) -> Path:
        """The kept spans and final counters as a Chrome trace (``repro.obs.export``)."""
        from repro.obs.export import write_chrome_trace
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        for layer, key, start, end, span_id, parent, op in self.records:
            recorder.add_span(
                layer,
                start,
                end,
                cat=key,
                tid=0,
                args={"span": span_id, "parent": parent, "op": op},
            )
        for name, value in sorted(self.counts.items()):
            recorder.inc(name, value)
        return write_chrome_trace(path, recorder)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _with_subclasses(base: type) -> list[type]:
    seen: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


# --------------------------------------------------------------------------- #
# Counter hooks
# --------------------------------------------------------------------------- #


def _count(name: str, amount: Callable[[tuple, dict, Any], float] | None = None) -> Hook:
    def post(tracer, _token, args, kwargs, result, _duration):
        tracer.counts[name] += 1 if amount is None else amount(args, kwargs, result)

    return Hook(post=post)


def _cached_machine_misses() -> int:
    module = sys.modules.get("repro.scenario.simulation")
    cache = getattr(module, "_cached_machine", None)
    info = getattr(cache, "cache_info", None)
    return info().misses if info else 0


def _machine_post(tracer, before, _args, _kwargs, _result, _duration):
    tracer.counts["machine.resolves"] += 1
    # clear_program_caches resets the counters too; a reset reads as no build.
    tracer.counts["machine.builds"] += max(0, _cached_machine_misses() - before)


def _ledger_cache_size(args, _kwargs):
    return len(getattr(args[0], "_alloc_cache", ()))


def _contention_post(tracer, before, args, _kwargs, _result, _duration):
    tracer.counts["contention.allocations"] += 1
    # A solved allocation is memoised, so the memo changes size; a hit leaves it.
    if not hasattr(args[0], "_alloc_cache") or _ledger_cache_size(args, None) != before:
        tracer.counts["contention.solves"] += 1


def _world_events(args, _kwargs):
    return args[0].env.events_processed


def _simmpi_post(tracer, before, args, _kwargs, result, _duration):
    tracer.counts["simmpi.runs"] += 1
    tracer.counts["simmpi.events"] += args[0].env.events_processed - before
    tracer.counts["simmpi.bytes"] += result.files.total_bytes()


def _cpu_before(_args, _kwargs):
    return cpu_now()


def _store_post(kind: str):
    def post(tracer, cpu_before, _args, _kwargs, result, duration):
        tracer.counts[f"store.{kind}s"] += 1
        if kind == "read" and result is not None:
            tracer.counts["store.hits"] += 1
        tracer.counts["store.wait_s"] += max(0.0, duration - (cpu_now() - cpu_before))

    return post


def _runner_post(tracer, cpu_before, args, kwargs, _result, _duration):
    ids = args[0] if args else kwargs.get("ids")
    if ids is not None and len(ids) == 1:
        tracer.counts[f"experiment.{ids[0]}.cpu_s"] += cpu_now() - cpu_before


TARGETS: list[Target] = [
    Target("workloads", "repro.workloads.base", "bytes_per_rank", "Workload",
           _count("workloads.calls")),
    Target("workloads", "repro.workloads.base", "segments_for_rank", "Workload",
           _count("workloads.calls")),
    Target("partitioning", "repro.core.partitioning", "build_partitions",
           hook=Hook(post=lambda tracer, _t, args, _k, _r, _d: tracer.counts.update(
               {"partitioning.calls": 1, "partitioning.ranks": args[0].num_ranks}))),
    Target("placement", "repro.core.placement", "place_aggregators",
           hook=_count("placement.calls")),
    Target("placement", "repro.core.cost_model", "best_candidate", "AggregationCostModel",
           _count("placement.candidates", lambda args, kwargs, _r: len(args[1]))),
    Target("machine", "repro.scenario.simulation", "resolve_machine",
           hook=Hook(lambda args, kwargs: _cached_machine_misses(), _machine_post)),
    Target("perfmodel", "repro.perfmodel.tapioca", "model_tapioca",
           hook=_count("perfmodel.estimates")),
    Target("perfmodel", "repro.perfmodel.mpiio", "model_mpiio",
           hook=_count("perfmodel.estimates")),
    Target("flows", "repro.perfmodel.flows", "analyze_flows", hook=_count("flows.calls")),
    Target("storage", "repro.storage.base", "phase_time", "FileSystemModel",
           _count("storage.calls")),
    Target("contention", "repro.multijob.contention", "allocate", "ContentionLedger",
           Hook(_ledger_cache_size, _contention_post)),
    Target("multijob", "repro.multijob.runtime", "__init__", "MultiJobRuntime"),
    Target("multijob", "repro.multijob.runtime", "run", "MultiJobRuntime",
           Hook(post=lambda tracer, _t, args, _k, _r, _d: tracer.counts.update(
               {"multijob.runs": 1, "multijob.jobs": len(args[0].jobs)}))),
    Target("simmpi", "repro.simmpi.world", "run", "SimWorld", Hook(_world_events, _simmpi_post)),
    Target("scenario", "repro.scenario.spec", "from_dict", "Scenario",
           _count("scenario.parses")),
    Target("scenario", "repro.scenario.spec", "content_hash", "Scenario"),
    Target("scenario", "repro.scenario.simulation", "run", "Simulation"),
    Target("store", "repro.experiments.store", "load_scenario_result", "ArtifactStore",
           Hook(_cpu_before, _store_post("read"))),
    Target("store", "repro.experiments.store", "save_scenario_result", "ArtifactStore",
           Hook(_cpu_before, _store_post("write"))),
    Target("results", "repro.experiments.results", "to_dict", "ExperimentResult",
           _count("results.calls")),
    Target("results", "repro.experiments.results", "from_dict", "ExperimentResult",
           _count("results.calls")),
    Target("runner", "repro.experiments.runner", "run_experiments",
           hook=Hook(_cpu_before, _runner_post)),
    Target("api", "repro.core.api", "evaluate", hook=_count("api.calls")),
]
