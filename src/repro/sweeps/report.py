"""Sweep result aggregation and writers (JSON, CSV, markdown).

A :class:`SweepReport` is the pure data product of executing a sweep: the
canonical spec, the code version it was computed under, and one metrics row
per grid point in grid order.  Execution metadata (wall time, cache hits,
job count) deliberately stays out — a report is a function of
(spec, code version) only, so serial and parallel runs, and cold and warm
runs, serialize byte-identically.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..experiments.runner import ExperimentResult


@dataclass
class SweepReport(ExperimentResult):
    """Aggregated results of one sweep execution.

    An :class:`~repro.experiments.runner.ExperimentResult` (name,
    description, one flat metrics row per grid point in grid order, and its
    column, filter, JSON and CSV helpers) that also records:

    Attributes
    ----------
    spec:
        The canonical spec dict (:meth:`SweepSpec.to_dict`).
    code_version:
        Package-source digest the rows were computed under.
    """

    spec: dict[str, Any] = field(default_factory=dict)
    code_version: str = ""

    @property
    def num_points(self) -> int:
        """Grid points recorded."""
        return len(self.rows)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "spec": self.spec,
            "code_version": self.code_version,
            "rows": self.rows,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SweepReport":
        """Rebuild a report from its plain-dict form."""
        missing = [k for k in ("name", "spec", "code_version", "rows") if k not in payload]
        if missing:
            raise ValueError(f"not a sweep report: missing keys {missing}")
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            spec=payload["spec"],
            code_version=payload["code_version"],
            rows=list(payload["rows"]),
        )

    @classmethod
    def load_json(cls, path: str | Path) -> "SweepReport":
        """Read a report previously written by :meth:`write_json`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_markdown(self, max_rows: int | None = None) -> str:
        """Render a GitHub-flavoured markdown summary table."""
        lines = [f"# Sweep `{self.name}`", ""]
        if self.description:
            lines += [self.description, ""]
        lines += [
            f"- points: {self.num_points}",
            f"- code version: `{self.code_version}`",
            "",
        ]
        if not self.rows:
            lines.append("(no rows)")
            return "\n".join(lines)
        columns = self.columns()
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in shown:
            lines.append("| " + " | ".join(_fmt_cell(row.get(k)) for k in columns) + " |")
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append("")
            lines.append(f"({len(self.rows) - max_rows} more rows omitted)")
        return "\n".join(lines)

    def write_markdown(self, path: str | Path) -> Path:
        """Write the markdown summary table."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_markdown() + "\n", encoding="utf-8")
        return path


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def read_csv_rows(path: str | Path) -> list[dict[str, Any]]:
    """Read a :meth:`SweepReport.write_csv` file back into typed rows.

    Cells are coerced empty-string -> None, then int, then float, falling
    back to the raw string — the inverse of the writer for the value types
    sweep rows contain.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        return [
            {key: _coerce_cell(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def _coerce_cell(text: str | None) -> Any:
    if text is None or text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
