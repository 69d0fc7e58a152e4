"""Plain-text tables for benchmark and example output.

Besides the aligned text rendering, tables export to CSV and JSON — the
campaign layer writes its aggregate tables through these so that a sweep's
results can be diffed byte for byte (serial vs parallel execution) and fed to
external tooling.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Iterable, List, Sequence


class TextTable:
    """A minimal column-aligned text table.

    Used by the campaign aggregate, the query CLI and the trace analysis
    table to print their rows.
    """

    def __init__(self, columns: Sequence[str], *, title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self._columns = [str(c) for c in columns]
        self._rows: List[List[str]] = []
        self._raw_rows: List[List[Any]] = []
        self._title = title

    def add_row(self, *values: Any) -> None:
        """Append a row; values are converted with ``str``."""
        if len(values) != len(self._columns):
            raise ValueError(
                f"expected {len(self._columns)} values, got {len(values)}"
            )
        self._rows.append([_format(value) for value in values])
        self._raw_rows.append(list(values))

    def add_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append several rows."""
        for row in rows:
            self.add_row(*row)

    @property
    def row_count(self) -> int:
        """Number of data rows added so far."""
        return len(self._rows)

    def render(self) -> str:
        """The table as a multi-line string."""
        widths = [len(c) for c in self._columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self._title:
            lines.append(self._title)
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self._columns))
        lines.append(header)
        lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
        for row in self._rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def render_csv(self) -> str:
        """The table as RFC-4180 CSV (header row first, formatted cells)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self._columns)
        writer.writerows(self._rows)
        return buffer.getvalue()

    def render_json(self) -> str:
        """The table as a JSON document: ``{"title", "columns", "rows"}``.

        Rows carry the *raw* values passed to :meth:`add_row` (falling back to
        ``str`` for non-JSON-serialisable objects), keyed by column name, so
        downstream tooling is not limited to the text formatting.
        """
        rows = [
            dict(zip(self._columns, row)) for row in self._raw_rows
        ]
        return json.dumps(
            {"title": self._title, "columns": self._columns, "rows": rows},
            indent=2,
            sort_keys=False,
            default=str,
        )

    def __str__(self) -> str:
        return self.render()


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
