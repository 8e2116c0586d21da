"""Result tables: the common output format of every experiment."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentTable:
    """Rows of results plus metadata identifying the experiment.

    The ``expectation`` field records, in prose, the shape the paper reports
    for the same figure/table so that EXPERIMENTS.md can be generated from the
    harness output alone.
    """

    name: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    expectation: str = ""
    parameters: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row is missing columns {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows whose values match every criterion exactly."""
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected

    # -- rendering ------------------------------------------------------------------

    def to_text(self) -> str:
        """Render as a fixed-width text table."""
        headers = list(self.columns)
        rendered_rows = [
            [self._format(row[column]) for column in headers] for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rendered_rows))
            if rendered_rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.name]
        if self.parameters:
            lines.append(
                "parameters: "
                + ", ".join(f"{key}={value}" for key, value in self.parameters.items())
            )
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in rendered_rows:
            lines.append(
                "  ".join(value.ljust(widths[i]) for i, value in enumerate(row))
            )
        if self.expectation:
            lines.append(f"paper expectation: {self.expectation}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "parameters": self.parameters,
                "columns": list(self.columns),
                "rows": self.rows,
                "expectation": self.expectation,
            },
            indent=2,
            default=str,
        )

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def __str__(self) -> str:
        return self.to_text()
