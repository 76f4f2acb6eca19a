"""Minimal ASCII table rendering for the experiment harness.

``repro run`` prints, for every figure and table of the paper, the same
rows/series the paper reports.  This module provides the small fixed width
table formatter used for that output so the CLI and examples do not each
reinvent it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Table:
    """A simple column-aligned text table.

    Attributes:
        headers: column titles.
        rows: list of rows; each row must have ``len(headers)`` cells.
        title: optional title printed above the table.
    """

    headers: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)
    title: str | None = None

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are converted with ``str`` (floats get 3 sig.figs)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}"
            )
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(f"{cell:.3g}")
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        """Append many rows at once."""
        for row in rows:
            self.add_row(*row)

    def render(self) -> str:
        """Render the table to a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
