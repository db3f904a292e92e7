"""The append-only, content-addressed history database.

A :class:`HistoryStore` accumulates :class:`~repro.history.record.RunRecord`
entries -- in memory, or durably as one JSONL file whose first line is
a schema meta header and every further line one record.  Records are
never mutated or deleted in place (append-only); the only rewriting
operation is explicit :meth:`compact`, which applies the documented
retention rule (keep the last N points per series) and writes a fresh
file.

Determinism contract: :meth:`canonical_export` depends only on the
*set* of appended records and their per-series order -- records are
sorted by ``(series_key, seq, record_key)`` and volatile fields are
dropped -- so a run appended via 8 engine workers, a serial replay and
a warm-cache rerun all export byte-identical documents (the CI
``history`` job compares them with ``cmp``).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterable

from ..exec.jsonl import JsonlReader, cut_torn_tail, replace_file
from .record import HISTORY_SCHEMA, HISTORY_VERSION, RunRecord


class HistoryError(ValueError):
    """A history database file violates the schema."""


def _meta_line() -> dict[str, Any]:
    meta = {"type": "history-meta", "schema": HISTORY_SCHEMA,
            "version": HISTORY_VERSION}
    return meta


class HistoryStore:
    """Append-only run database with per-series sequence numbers.

    ``path=None`` keeps the store in memory; with a path every append
    is immediately written through (one JSON line, crash-safe), and
    constructing the store re-reads whatever the file already holds.
    A final line with no trailing newline is an append that was cut
    short: the complete prefix loads, a warning on stderr names the
    dropped bytes, and the next append first truncates the file back to
    its last newline.  A malformed line anywhere else is a
    :class:`HistoryError`.
    Thread-safe: suite drivers append from the main thread in
    submission order, which keeps sequence numbers worker-count
    independent.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: list[RunRecord] = []
        self._series_len: dict[str, int] = {}
        self._lock = threading.Lock()
        #: byte length of the complete-line prefix of a torn file
        self._torn_at: int | None = None
        if self.path is not None and self.path.exists():
            for rec in self._read(self.path):
                self._adopt(rec)
        elif self.path is not None:
            self._write_header(self.path)

    # -- ingestion ----------------------------------------------------------

    def _read(self, path: Path) -> Iterable[RunRecord]:
        lines = JsonlReader(path, HistoryError, "history")
        first = True
        for lineno, obj in lines:
            if first:
                first = False
                if not isinstance(obj, dict) or \
                        obj.get("type") != "history-meta" or \
                        obj.get("schema") != HISTORY_SCHEMA:
                    raise HistoryError(
                        f"{path}:{lineno}: not a history database "
                        f"(expected a {HISTORY_SCHEMA!r} meta header)")
                continue
            if not isinstance(obj, dict):
                raise HistoryError(f"{path}:{lineno}: bad record: not a "
                                   f"JSON object: {json.dumps(obj)[:40]}")
            try:
                yield RunRecord.from_line(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise HistoryError(
                    f"{path}:{lineno}: bad record: {exc}") from exc
        self._torn_at = lines.torn_at

    @staticmethod
    def _write_header(path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_meta_line(), sort_keys=True,
                                separators=(",", ":")) + "\n")

    def _adopt(self, rec: RunRecord) -> RunRecord:
        """Register an already-sequenced record read back from disk."""
        key = rec.series_key
        self._records.append(rec)
        self._series_len[key] = max(self._series_len.get(key, 0),
                                    rec.seq + 1)
        return rec

    def append(self, rec: RunRecord) -> RunRecord:
        """Append one record; assigns its per-series sequence number.

        The record's ``seq`` becomes the current length of its series
        (append order *is* history order), and with a backing file the
        line is written through immediately.
        """
        with self._lock:
            key = rec.series_key
            rec.seq = self._series_len.get(key, 0)
            self._series_len[key] = rec.seq + 1
            self._records.append(rec)
            if self.path is not None:
                if self._torn_at == 0 or not self.path.exists():
                    self._write_header(self.path)  # even the header tore
                else:
                    cut_torn_tail(self.path, self._torn_at)
                self._torn_at = None
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec.to_line(), sort_keys=True,
                                        separators=(",", ":")) + "\n")
        return rec

    def extend(self, records: Iterable[RunRecord]) -> list[RunRecord]:
        return [self.append(r) for r in records]

    # -- queries ------------------------------------------------------------

    @property
    def records(self) -> list[RunRecord]:
        """All records, canonically ordered (series, then history)."""
        with self._lock:
            return sorted(self._records,
                          key=lambda r: (r.series_key, r.seq, r.record_key))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def series_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series_len)

    def series(self, key: str) -> list[RunRecord]:
        """One trajectory, in history order."""
        return sorted((r for r in self.records if r.series_key == key),
                      key=lambda r: r.seq)

    def benchmarks(self) -> list[str]:
        """Distinct benchmark names present, sorted."""
        with self._lock:
            return sorted({r.benchmark for r in self._records})

    def select(self, benchmark: str | None = None) -> dict[str, list[RunRecord]]:
        """Series grouped by key, optionally restricted to a benchmark
        (exact name match)."""
        out: dict[str, list[RunRecord]] = {}
        for rec in self.records:
            if benchmark is not None and rec.benchmark != benchmark:
                continue
            out.setdefault(rec.series_key, []).append(rec)
        for recs in out.values():
            recs.sort(key=lambda r: r.seq)
        return out

    # -- export / retention -------------------------------------------------

    def canonical_export(self) -> str:
        """The byte-stable canonical JSON document of the whole DB."""
        doc = {"schema": HISTORY_SCHEMA, "version": HISTORY_VERSION,
               "records": [r.canonical() for r in self.records]}
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def save(self, path: str | Path) -> int:
        """Write the full store (meta header + every record) as one JSONL
        file that replaces ``path`` atomically; returns the record
        count."""
        recs = self.records
        replace_file(path, "".join(
            json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
            for line in (_meta_line(), *(rec.to_line() for rec in recs))))
        return len(recs)

    def compact(self, keep_last: int,
                path: str | Path | None = None) -> "HistoryStore":
        """Apply the retention rule: keep the last ``keep_last`` points
        of every series (sequence numbers are preserved, so trajectory
        positions stay meaningful after compaction).

        Returns a new store; with ``path`` (or a file-backed source)
        the compacted database is also written out, atomically
        replacing the source file when the paths coincide.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        target = Path(path) if path is not None else self.path
        out = HistoryStore()
        grouped = self.select()      # one pass, not one sort per series
        for key in self.series_keys():
            for rec in grouped.get(key, ())[-keep_last:]:
                out._adopt(rec)
        if target is not None:
            out.save(target)
            out.path = target
        return out

    # -- convenience --------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "HistoryStore":
        """Open (or create) a file-backed store."""
        return cls(path)

    def record_and_append(self, benchmark: str,
                          fom_seconds: float | None = None,
                          **kwargs: Any) -> RunRecord:
        """Shorthand: build a stamped record and append it."""
        from .record import build_record
        return self.append(build_record(benchmark, fom_seconds, **kwargs))


def is_history_file(path: str | Path) -> bool:
    """Whether ``path`` looks like a history database (meta header
    sniff; used by ``jubench report`` to dispatch rendering)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                return isinstance(obj, dict) and \
                    obj.get("type") == "history-meta" and \
                    obj.get("schema") == HISTORY_SCHEMA
    except (OSError, json.JSONDecodeError):
        return False
    return False
