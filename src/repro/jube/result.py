"""JUBE-style result tables.

After execution, JUBE condenses a benchmark run into a tabular summary
including the FOM (Sec. III-B: "the benchmark results are presented by
JUBE in a concise tabular form").  :class:`ResultTable` declares the
columns (parameter names or step-output keys, with optional format
specs) and renders collected workunits as an aligned ASCII table --
which is also how the figure-reproduction benches print their series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass(frozen=True)
class Column:
    """One table column: a lookup key plus presentation details.

    ``source`` is either ``"params"`` or a step name whose outputs are
    consulted; ``"auto"`` searches params first, then all step outputs.
    ``fmt`` is a Python format spec applied to the value (e.g. ``".2f"``).
    """

    key: str
    title: str | None = None
    source: str = "auto"
    fmt: str = ""

    @property
    def header(self) -> str:
        return self.title if self.title is not None else self.key


@dataclass
class WorkunitRecord:
    """The raw material of one table row."""

    params: dict[str, Any]
    outputs: dict[str, dict[str, Any]]

    def lookup(self, col: Column) -> Any:
        if col.source == "params":
            return self.params.get(col.key)
        if col.source != "auto":
            return self.outputs.get(col.source, {}).get(col.key)
        if col.key in self.params:
            return self.params[col.key]
        for step_out in self.outputs.values():
            if col.key in step_out:
                return step_out[col.key]
        return None


@dataclass
class ResultTable:
    """Declarative table over a list of workunit records."""

    name: str
    columns: list[Column]
    sort_by: str | None = None

    def rows(self, records: Iterable[WorkunitRecord]) -> list[list[Any]]:
        """Raw (unformatted) row values in sorted order."""
        recs = list(records)
        if self.sort_by is not None:
            col = next((c for c in self.columns if c.key == self.sort_by), None)
            if col is None:
                raise KeyError(f"sort column {self.sort_by!r} not in table")
            recs.sort(key=lambda r: (r.lookup(col) is None, r.lookup(col)))
        return [[r.lookup(c) for c in self.columns] for r in recs]

    def render(self, records: Iterable[WorkunitRecord]) -> str:
        """Aligned ASCII table (JUBE's ``result`` output style)."""
        raw = self.rows(records)
        headers = [c.header for c in self.columns]
        formatted: list[list[str]] = []
        for row in raw:
            cells = []
            for col, value in zip(self.columns, row):
                if value is None:
                    cells.append("-")
                elif col.fmt:
                    cells.append(format(value, col.fmt))
                else:
                    cells.append(str(value))
            formatted.append(cells)
        widths = [max(len(h), *(len(r[i]) for r in formatted)) if formatted
                  else len(h) for i, h in enumerate(headers)]
        sep = "-+-".join("-" * w for w in widths)
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
        for cells in formatted:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)
