"""The structured run journal: one record per executed unit of work.

Every task the execution engine processes -- benchmark run, scaling
point, service task -- leaves a :class:`TaskRecord` with timing, cache
status, retry count and error state.  Since the telemetry layer landed,
the journal is a *consumer of the engine's span stream*: the engine
records one ``task:`` span per processed item and the journal's
:meth:`RunJournal.on_span` subscriber turns those spans into records --
there is no parallel bookkeeping path.

``jubench ... --journal [PATH]`` prints it (or persists it as JSONL
via :meth:`RunJournal.to_jsonl`, schema-compatible with the telemetry
event sink, so ``jubench report`` can re-render it offline), the
suite-pipeline bench reports it, and the incremental-execution tests
assert on its counters (e.g. "a warm rerun executed nothing").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TaskRecord:
    """Outcome bookkeeping of one engine task."""

    index: int
    label: str
    status: str               # "ok" | "error"
    cache: str                # "hit" | "miss" | "off"
    attempts: int = 1
    started: float = 0.0      # parent-clock timestamps, run-relative
    finished: float = 0.0
    key: str | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return max(0.0, self.finished - self.started)

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def executed(self) -> bool:
        """Whether actual work ran (anything but a cache hit)."""
        return self.cache != "hit"

    def to_event(self) -> dict[str, Any]:
        """JSONL representation (``type: task``, telemetry schema)."""
        return {"type": "task", "index": self.index, "label": self.label,
                "status": self.status, "cache": self.cache,
                "attempts": self.attempts, "started": self.started,
                "finished": self.finished, "key": self.key,
                "error": self.error}

    @classmethod
    def from_event(cls, event: dict[str, Any]) -> "TaskRecord":
        return cls(index=int(event["index"]), label=str(event["label"]),
                   status=str(event["status"]), cache=str(event["cache"]),
                   attempts=int(event["attempts"]),
                   started=float(event["started"]),
                   finished=float(event["finished"]),
                   key=event.get("key"), error=event.get("error"))


@dataclass
class JournalStats:
    """Aggregate counters over a journal's records."""

    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0


def _clean_error(error: str, limit: int = 72) -> str:
    """One safe line for the aligned summary table: newlines and
    control characters escaped, over-long text truncated with an
    ellipsis."""
    text = error.replace("\\", "\\\\").replace("\n", "\\n") \
        .replace("\r", "\\r").replace("\t", "\\t")
    text = "".join(c if c.isprintable() else "?" for c in text)
    if len(text) > limit:
        text = text[:limit - 1] + "\u2026"
    return text


class RunJournal:
    """Thread-safe, append-only record of a run's tasks.

    Wired to an engine it acts as a span-stream subscriber: the
    :meth:`on_span` hook filters ``attrs.kind == "task"`` spans out of
    the tracer feed and appends one record each.
    """

    def __init__(self) -> None:
        self._records: list[TaskRecord] = []
        self._lock = threading.Lock()

    def append(self, record: TaskRecord) -> None:
        with self._lock:
            self._records.append(record)

    def on_span(self, span: Any) -> None:
        """Tracer-subscriber hook: consume engine task spans."""
        attrs = span.attrs
        if attrs.get("kind") != "task":
            return
        self.append(TaskRecord(
            index=attrs["index"], label=attrs["label"],
            status=attrs["status"], cache=attrs["cache"],
            attempts=attrs["attempts"], started=span.start,
            finished=span.end, key=attrs.get("key"),
            error=attrs.get("error")))

    @property
    def records(self) -> list[TaskRecord]:
        """Records in submission-index order (stable across workers)."""
        with self._lock:
            return sorted(self._records, key=lambda r: r.index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def canonical(self) -> "RunJournal":
        """The journal re-timed onto a virtual unit timeline.

        Records are ordered by ``(index, label)`` and assigned
        ``started=i, finished=i+1``: the result depends only on *what*
        ran and *how it ended*, never on scheduling, so its
        :meth:`to_jsonl` output is byte-identical across cold runs
        *and* across worker counts -- the chaos determinism artifact.
        """
        out = RunJournal()
        ordered = sorted(self.records, key=lambda r: (r.index, r.label))
        for i, rec in enumerate(ordered):
            out.append(TaskRecord(index=rec.index, label=rec.label,
                                  status=rec.status, cache=rec.cache,
                                  attempts=rec.attempts, started=float(i),
                                  finished=float(i + 1), key=rec.key,
                                  error=rec.error))
        return out

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def digest(self) -> str:
        """Stable content hash of the canonical journal.

        Because it is taken over :meth:`canonical` (virtual unit
        timeline), the digest depends only on what ran and how it
        ended -- the provenance link history records carry, matching
        across worker counts and replays of the same run.
        """
        from .cache import stable_hash  # local: keep module deps one-way

        return stable_hash(
            [r.to_event() for r in self.canonical().records])[:16]

    def stats(self) -> JournalStats:
        """Aggregate counters of everything journalled so far."""
        recs = self.records
        out = JournalStats(tasks=len(recs))
        if not recs:
            return out
        out.executed = sum(1 for r in recs if r.executed)
        out.cache_hits = sum(1 for r in recs if r.cache == "hit")
        out.errors = sum(1 for r in recs if r.status == "error")
        out.retries = sum(r.retries for r in recs)
        out.busy_seconds = sum(r.duration for r in recs)
        out.wall_seconds = max(r.finished for r in recs) - \
            min(r.started for r in recs)
        return out

    def summary(self, max_errors: int = 8) -> str:
        """Human-readable journal: per-task lines plus totals.

        Error strings are escaped to a single truncated line so one
        failing task cannot corrupt the aligned table; only the first
        ``max_errors`` error texts are shown in full, the rest collapse
        into an "... and N more" tail.
        """
        recs = self.records
        lines = [f"run journal -- {len(recs)} tasks"]
        errors_shown = 0
        errors_total = sum(1 for r in recs if r.error)
        for r in recs:
            flags = []
            if r.retries:
                flags.append(f"retries={r.retries}")
            if r.error:
                errors_shown += 1
                if errors_shown <= max_errors:
                    flags.append(f"error: {_clean_error(r.error)}")
                else:
                    flags.append("error")
            tail = ("  " + ", ".join(flags)) if flags else ""
            lines.append(f"  [{r.index:>3}] {r.label:<28} {r.status:<5} "
                         f"cache={r.cache:<4} {r.duration * 1e3:8.1f} ms"
                         f"{tail}")
        if errors_total > max_errors:
            lines.append(f"  \u2026 and {errors_total - max_errors} more "
                         f"errors (full text via to_jsonl / --journal PATH)")
        s = self.stats()
        lines.append(f"  executed {s.executed}/{s.tasks}, "
                     f"cache hits {s.cache_hits}, errors {s.errors}, "
                     f"retries {s.retries}, "
                     f"busy {s.busy_seconds:.3f} s over "
                     f"wall {s.wall_seconds:.3f} s")
        return "\n".join(lines)

    # -- persistence (telemetry JSONL schema) -------------------------------

    def to_jsonl(self, path: Any) -> int:
        """Write the journal as schema-valid JSONL, atomically; returns
        the record count.  ``jubench report PATH`` renders the file
        offline."""
        from ..telemetry.schema import trace_log  # avoid import cycle

        recs = self.records
        trace_log(path).rewrite(r.to_event() for r in recs)
        return len(recs)

    @classmethod
    def from_jsonl(cls, path: Any) -> "RunJournal":
        """Rebuild a journal from a JSONL trace (its own ``task``
        events, or engine task spans from a full telemetry trace)."""
        from ..telemetry.report import journal_from_events
        from ..telemetry.schema import read_events

        return journal_from_events(read_events(path))
