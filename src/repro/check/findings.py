"""Findings, severities, and the committed baseline file.

A :class:`Finding` is one rule violation at one source location.  The
*baseline* (``check-baseline.json`` at the repository root) records
findings that are known, justified, and intentionally kept -- legacy
sites and deliberate exceptions -- so they never fail CI while still
being visible in reports.  Baseline entries match on
``(rule, path, snippet)`` rather than line numbers, so unrelated edits
above a baselined site do not invalidate the entry.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..exec.jsonl import replace_file


class Severity(enum.Enum):
    """Finding severities, mapped 1:1 onto SARIF levels."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@dataclass
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped source line -- the stable identity used
    for baseline matching.  ``justification`` is filled in when the
    finding is suppressed inline or matched against a baseline entry.
    ``trace`` carries dimension provenance for the UNIT3xx rules: how
    each operand got its inferred dimension, one human-readable step
    per line.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    snippet: str = ""
    justification: str = ""
    trace: list[str] = field(default_factory=list)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def baseline_key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict[str, Any]:
        out = {"rule": self.rule, "severity": self.severity.value,
               "path": self.path, "line": self.line,
               "message": self.message, "snippet": self.snippet}
        if self.justification:
            out["justification"] = self.justification
        if self.trace:
            out["trace"] = list(self.trace)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the incremental cache)."""
        return cls(rule=data["rule"],
                   severity=Severity(data["severity"]),
                   path=data["path"], line=data["line"],
                   message=data["message"],
                   snippet=data.get("snippet", ""),
                   justification=data.get("justification", ""),
                   trace=list(data.get("trace", ())))

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.severity.value}] "
                f"{self.rule}: {self.message}")


@dataclass
class BaselineEntry:
    """One committed, justified finding."""

    rule: str
    path: str
    snippet: str
    justification: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict[str, str]:
        return {"rule": self.rule, "path": self.path,
                "snippet": self.snippet,
                "justification": self.justification}


@dataclass
class Baseline:
    """The set of baselined findings, keyed for matching."""

    entries: list[BaselineEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_key = {e.key(): e for e in self.entries}
        self._matched: set[tuple[str, str, str]] = set()

    def match(self, finding: Finding) -> BaselineEntry | None:
        """The entry covering a finding, if any (marks it as used)."""
        entry = self._by_key.get(finding.baseline_key())
        if entry is not None:
            self._matched.add(entry.key())
        return entry

    def unused(self) -> list[BaselineEntry]:
        """Entries that matched no finding -- stale, should be pruned."""
        return [e for e in self.entries if e.key() not in self._matched]

    @classmethod
    def from_findings(cls, findings: Iterable[Finding],
                      justification: str = "") -> "Baseline":
        entries = []
        seen = set()
        for f in sorted(findings, key=Finding.sort_key):
            key = f.baseline_key()
            if key in seen:
                continue
            seen.add(key)
            entries.append(BaselineEntry(
                rule=f.rule, path=f.path, snippet=f.snippet,
                justification=f.justification or justification))
        return cls(entries=entries)


def load_baseline(path: str | Path) -> Baseline:
    """Load ``check-baseline.json``; a missing file is an empty baseline."""
    path = Path(path)
    if not path.exists():
        return Baseline()
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = [BaselineEntry(rule=e["rule"], path=e["path"],
                             snippet=e["snippet"],
                             justification=e.get("justification", ""))
               for e in data.get("entries", ())]
    return Baseline(entries=entries)


def save_baseline(path: str | Path, baseline: Baseline) -> int:
    """Write a baseline file; returns the number of entries.

    Written through :func:`~repro.exec.jsonl.replace_file`, so a write
    that fails part-way leaves the previous baseline byte for byte.
    """
    payload = {
        "_meta": {
            "description": "Known, justified repro.check findings; "
                           "kept out of the failing set",
            "regenerate": "jubench check --write-baseline "
                          "(then add a justification per entry)",
        },
        "entries": [e.to_dict() for e in baseline.entries],
    }
    replace_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(baseline.entries)
