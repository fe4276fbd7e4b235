"""Tabular experiment results with a plain-text renderer.

Each experiment returns an :class:`ExperimentResult`: a named table whose
rows mirror the series/rows of the corresponding figure or table in the
paper.  The renderer prints fixed-width text tables so benchmark output can
be diffed and pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.5f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class ExperimentResult:
    """A named table of experiment measurements."""

    name: str
    description: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_row(self, *values: object) -> None:
        """Append one row; the number of values must match the columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values ({self.columns}), got {len(values)}"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a free-text note rendered below the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    # Only ``benchmarks/`` calls this, to pick the rows a bar compares.
    def filtered(self, **criteria: object) -> List[List[object]]:
        """Rows whose named columns equal the given values."""
        indexes = {self.columns.index(name): value for name, value in criteria.items()}
        return [
            row
            for row in self.rows
            if all(row[index] == value for index, value in indexes.items())
        ]

    def as_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The JSON-serialisable form (the ``result`` block of a bench document)."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render the result as a fixed-width text table."""
        header = [self.columns]
        body = [[_format_value(value) for value in row] for row in self.rows]
        widths = [
            max(len(str(cell)) for cell in column)
            for column in zip(*(header + body))
        ] if self.rows else [len(name) for name in self.columns]

        def render_row(cells: Sequence[str]) -> str:
            return "  ".join(str(cell).rjust(width) for cell, width in zip(cells, widths))

        lines = [f"== {self.name} ==", self.description, ""]
        lines.append(render_row(self.columns))
        lines.append(render_row(["-" * width for width in widths]))
        lines.extend(render_row(row) for row in body)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        """Print the rendered table."""
        print(self.to_text())
