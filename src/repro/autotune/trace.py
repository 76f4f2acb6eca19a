"""Tuning traces: the certificate of one exhaustive tuning run.

A :class:`TuningTrace` holds every point of a search space in grid order —
its overrides, objective value, whether it came from the artifact-store
cache — plus each point's gap to the best value among them.  Because
:func:`~repro.autotune.tuner.tune` evaluates the whole space, that best
value is the proven optimum of the space, not a sample.  Traces round-trip
through JSON (``to_dict``/``from_dict``) and are persisted next to
experiment artifacts as ``<target>.tuning.json``, where ``repro report
--from`` picks them up.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.utils.tables import Table

#: Version stamp embedded in serialised traces (1 = budgeted strategy
#: traces with a best-so-far curve; 2 = whole-space certificates).
TRACE_SCHEMA = 2


@dataclass(frozen=True)
class TracePoint:
    """One point of the space.

    Attributes:
        index: 0-based position in the space's grid order.
        overrides: the candidate point (JSON-safe override mapping).
        num_nodes: machine size the point was evaluated at.
        value: objective value, or ``None`` for an invalid point.
        cached: whether the value came from the artifact-store point cache.
        gap: relative distance to the optimum — ``(optimum - value) /
            optimum`` when maximising, ``(value - optimum) / optimum`` when
            minimising, so 0.0 at the optimum and >= 0 everywhere;
            ``None`` for an invalid point.
        error: the validation error of an invalid point, if any.
    """

    index: int
    overrides: dict
    num_nodes: int
    value: float | None
    cached: bool = False
    gap: float | None = None
    error: str | None = None


@dataclass
class TuningTrace:
    """Every point of one tuned space and the proven optimum among them."""

    target: str
    objective: str
    direction: str
    space: dict = field(default_factory=dict)
    points: list[TracePoint] = field(default_factory=list)
    wall_time_s: float = 0.0

    # -- outcomes -----------------------------------------------------------

    def best_point(self) -> TracePoint | None:
        """The optimum: the first point in grid order with a zero gap."""
        return next((point for point in self.points if point.gap == 0.0), None)

    @property
    def best_value(self) -> float | None:
        """Objective value of the optimum (``None`` if nothing valid)."""
        best = self.best_point()
        return None if best is None else best.value

    @property
    def best_overrides(self) -> dict:
        """Override mapping of the optimum (empty if nothing valid)."""
        best = self.best_point()
        return {} if best is None else dict(best.overrides)

    def evaluations(self) -> int:
        """Points actually simulated (cache hits excluded)."""
        return sum(
            1 for point in self.points if not point.cached and point.error is None
        )

    def cache_hits(self) -> int:
        """Points served from the artifact-store point cache."""
        return sum(1 for point in self.points if point.cached)

    def invalid_points(self) -> int:
        """Candidate points the scenario tree rejected."""
        return sum(1 for point in self.points if point.error is not None)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable; inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["schema"] = TRACE_SCHEMA
        payload["best_value"] = self.best_value
        payload["best_overrides"] = self.best_overrides
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises:
            ValueError: when the payload carries another trace schema (e.g. a
                budgeted strategy trace written before whole-space tuning).
        """
        found = payload.get("schema")
        if found != TRACE_SCHEMA:
            raise ValueError(
                f"tuning trace schema {found!r}, expected {TRACE_SCHEMA}; "
                f"re-run repro tune to regenerate it"
            )
        return cls(
            target=payload["target"],
            objective=payload["objective"],
            direction=payload["direction"],
            space=dict(payload.get("space", {})),
            points=[TracePoint(**entry) for entry in payload.get("points", [])],
            wall_time_s=payload.get("wall_time_s", 0.0),
        )

    # -- rendering ----------------------------------------------------------

    def summary(self) -> str:
        """A short human-readable account of the run (for the CLI)."""
        lines = [
            f"tuned {self.target} over all {len(self.points)} points "
            f"(objective: {self.objective} [{self.direction}])",
            f"  {len(self.points)} points: {self.evaluations()} evaluated, "
            f"{self.cache_hits()} cache hits, {self.invalid_points()} invalid "
            f"({self.wall_time_s:.2f}s)",
        ]
        best = self.best_point()
        if best is None:
            lines.append("  no valid point in the space")
            return "\n".join(lines)
        lines.append(f"  proven optimum {self.objective}: {best.value:.4g}")
        for key in sorted(best.overrides):
            lines.append(f"    {key} = {best.overrides[key]}")
        return "\n".join(lines)

    def to_table(self) -> Table:
        """The 10 best points (ties in grid order) with their gaps."""
        fields = list(self.space)
        table = Table(
            headers=["grid #", self.objective, "gap %", *fields],
            title=f"{self.target}: 10 best of {len(self.points)} points",
        )
        ranked = sorted(
            (point for point in self.points if point.gap is not None),
            key=lambda point: point.gap,
        )
        for point in ranked[:10]:
            table.add_row(
                point.index,
                point.value,
                100.0 * point.gap,
                *(point.overrides.get(name) for name in fields),
            )
        return table
