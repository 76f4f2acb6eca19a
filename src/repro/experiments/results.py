"""Result containers for reproduced experiments."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.utils.tables import Table

#: Gaps below this fraction render as "0.000% (within tolerance)": the
#: coupled objective is a sum of O(partitions) float terms, so two
#: placements whose costs agree to ~1e-9 relative are indistinguishable —
#: a "gap" that small is accumulated rounding, not a placement difference.
GAP_RENDER_TOLERANCE = 1e-9


def format_optimality_gap(gap: float) -> str:
    """Render an optimality gap fraction as a percentage string.

    Gaps within :data:`GAP_RENDER_TOLERANCE` are reported as a clean zero so
    floating-point dust never reads as a real suboptimality claim.
    """
    if gap <= GAP_RENDER_TOLERANCE:
        return "0.000% (within tolerance)"
    return f"{100.0 * gap:.3f}%"


@dataclass(frozen=True)
class SeriesPoint:
    """One point of a figure series.

    Attributes:
        x: the x-axis value (data size per rank in MB, or a ratio label...).
        bandwidth_gbps: the measured/modelled bandwidth in GB/s.
    """

    x: float
    bandwidth_gbps: float


@dataclass
class Series:
    """One curve of a figure (e.g. ``"TAPIOCA AoS"``)."""

    label: str
    points: list[SeriesPoint] = field(default_factory=list)

    def add(self, x: float, bandwidth_gbps: float) -> None:
        """Append a point."""
        self.points.append(SeriesPoint(x, bandwidth_gbps))

    def at(self, x: float) -> float:
        """Bandwidth at a given x (KeyError if absent).

        Matching tolerates float rounding (``math.isclose``) so x values
        derived through scale divisors or JSON round-trips still hit.
        """
        for point in self.points:
            if math.isclose(point.x, x, rel_tol=1e-9, abs_tol=1e-12):
                return point.bandwidth_gbps
        raise KeyError(f"series {self.label!r} has no point at x={x}")

    def xs(self) -> list[float]:
        """The x values of the series, in insertion order."""
        return [p.x for p in self.points]

    def max(self) -> float:
        """Maximum bandwidth of the series."""
        return max(p.bandwidth_gbps for p in self.points)

    def min(self) -> float:
        """Minimum bandwidth of the series."""
        return min(p.bandwidth_gbps for p in self.points)


@dataclass
class ExperimentResult:
    """The reproduction of one figure or table.

    Attributes:
        experiment_id: short identifier (``"fig10"``, ``"table1"``...).
        title: figure/table caption (abridged).
        machine: machine name the experiment models.
        x_label: meaning of the series' x values.
        series: the curves/rows of the figure/table.
        checks: named qualitative assertions with their outcomes; the
            test suite asserts that every check passes at scales 1 and 8.
        paper_reference: what the paper reports, for EXPERIMENTS.md.
        notes: free-form commentary (deviations, substitutions).
        optimality_gap: the greedy placement's certified optimality gap as
            a fraction (see :mod:`repro.placement_opt`); ``None`` — the
            default, and the only value old artifacts carry — means the
            experiment was not certified and is omitted from serialisation
            so uncertified artifacts stay byte-identical.
    """

    experiment_id: str
    title: str
    machine: str
    x_label: str
    series: list[Series] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    paper_reference: str = ""
    notes: str = ""
    optimality_gap: float | None = None

    # -- serialisation ------------------------------------------------------
    #
    # Mirrors Scenario's to_dict/from_dict/to_json/from_json so the two
    # halves of every (scenario in, result out) exchange — the artifact
    # store, the evaluation daemon, the CLI's --json modes — share one
    # serialisation idiom.

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable; inverse of :meth:`from_dict`)."""
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "machine": self.machine,
            "x_label": self.x_label,
            "series": [
                {
                    "label": series.label,
                    "points": [
                        {"x": point.x, "bandwidth_gbps": point.bandwidth_gbps}
                        for point in series.points
                    ],
                }
                for series in self.series
            ],
            "checks": dict(self.checks),
            "paper_reference": self.paper_reference,
            "notes": self.notes,
        }
        if self.optimality_gap is not None:
            payload["optimality_gap"] = self.optimality_gap
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        series = [
            Series(
                label=entry["label"],
                points=[
                    SeriesPoint(x=point["x"], bandwidth_gbps=point["bandwidth_gbps"])
                    for point in entry["points"]
                ],
            )
            for entry in payload["series"]
        ]
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            machine=payload["machine"],
            x_label=payload["x_label"],
            series=series,
            checks=dict(payload["checks"]),
            paper_reference=payload.get("paper_reference", ""),
            notes=payload.get("notes", ""),
            # Absent from every pre-certification artifact: .get() keeps
            # `repro report --from` working against old artifact stores.
            optimality_gap=payload.get("optimality_gap"),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict` (round-trips via :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def series_by_label(self, label: str) -> Series:
        """Look up a series by its label (KeyError if absent)."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.experiment_id}")

    def all_checks_pass(self) -> bool:
        """Whether every qualitative check passed."""
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        """Names of the checks that failed."""
        return [name for name, passed in self.checks.items() if not passed]

    def to_table(self) -> Table:
        """Render the series as a figure-style table (x vs one column per series)."""
        headers = [self.x_label] + [series.label for series in self.series]
        table = Table(headers=headers, title=f"{self.experiment_id}: {self.title}")
        xs = self.series[0].xs() if self.series else []
        for x in xs:
            row: list[object] = [x]
            for series in self.series:
                try:
                    row.append(round(series.at(x), 3))
                except KeyError:
                    row.append("-")
            table.add_row(*row)
        return table

    def render(self) -> str:
        """Full text rendering: table, checks and notes."""
        lines = [self.to_table().render(), ""]
        lines.append("Checks:")
        for name, passed in self.checks.items():
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        if self.optimality_gap is not None:
            lines.append(
                f"Optimality gap: {format_optimality_gap(self.optimality_gap)}"
            )
        if self.paper_reference:
            lines.append(f"Paper reference: {self.paper_reference}")
        if self.notes:
            lines.append(f"Notes: {self.notes}")
        return "\n".join(lines)
