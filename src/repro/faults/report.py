"""Deterministic chaos-run artifacts.

The acceptance contract for chaos runs is *byte identity* across cold
runs and worker counts.  Raw tracer output cannot honour that under a
thread pool (span completion order, span ids and thread lanes depend
on interleaving), so the committed artifacts are rendered from the
**canonical journal** -- records sorted by submission index and
re-timed onto a virtual unit timeline -- plus the declarative plan:

* :func:`canonical_journal` -- the byte-stable journal JSONL source,
* :func:`write_chaos_trace` -- a Chrome ``trace_event`` file with one
  slice per task (attempt sub-slices underneath) and the plan's
  cluster/link faults as instant events on a dedicated lane.
"""

from __future__ import annotations

import json
from typing import Any

from ..exec.journal import RunJournal
from .plan import FaultPlan


def canonical_journal(journal: RunJournal) -> RunJournal:
    """Re-time a journal onto the virtual unit timeline.

    Convenience alias of :meth:`~repro.exec.journal.RunJournal
    .canonical` -- the result depends only on *what* ran and *how it
    ended*, never on scheduling, which is what makes ``to_jsonl``
    output byte-identical across workers=1 and workers=8.
    """
    return journal.canonical()


def chaos_trace_events(journal: RunJournal,
                       plan: FaultPlan) -> list[dict[str, Any]]:
    """Chrome ``trace_event`` list for a chaos run (canonical time).

    Tasks render as complete slices on pid 1 (one tid lane), each with
    attempt sub-slices; the plan's cluster timeline and link faults
    render as instant events on pid 2 ("faults").  All timestamps come
    from the canonical journal / the plan, so the file is byte-stable.
    """
    scale = 1_000_000  # seconds -> microseconds
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "chaos tasks"}},
        {"ph": "M", "pid": 2, "name": "process_name",
         "args": {"name": "faults"}},
    ]
    for rec in canonical_journal(journal).records:
        start = int(rec.started * scale)
        width = int(rec.duration * scale)
        events.append({
            "ph": "X", "pid": 1, "tid": 1, "cat": "task",
            "name": f"task:{rec.label}", "ts": start, "dur": width,
            "args": {"status": rec.status, "attempts": rec.attempts,
                     "cache": rec.cache, "error": rec.error}})
        if rec.attempts > 1 or rec.status == "error":
            slot = width // max(1, rec.attempts)
            for n in range(rec.attempts):
                ok = rec.status == "ok" and n == rec.attempts - 1
                events.append({
                    "ph": "X", "pid": 1, "tid": 2, "cat": "attempt",
                    "name": f"attempt {n + 1}"
                            f" ({'ok' if ok else 'fault'})",
                    "ts": start + n * slot, "dur": slot,
                    "args": {"label": rec.label, "n": n + 1}})
    for at, action, node, factor in plan.cluster_timeline():
        args: dict[str, Any] = {"node": node, "action": action}
        if factor:
            args["factor"] = factor
        events.append({"ph": "i", "pid": 2, "tid": 1, "cat": "fault",
                       "name": f"{action} node {node}", "s": "g",
                       "ts": int(at * scale), "args": args})
    for link, factor in sorted(plan.link_factors().items()):
        events.append({"ph": "i", "pid": 2, "tid": 2, "cat": "fault",
                       "name": f"degrade {link} x{factor}", "s": "g",
                       "ts": 0, "args": {"link": link, "factor": factor}})
    return events


def write_chaos_trace(path: Any, journal: RunJournal,
                      plan: FaultPlan) -> int:
    """Write the deterministic chaos Chrome trace, atomically; returns
    the event count.  Open the file in ``chrome://tracing`` / Perfetto."""
    from ..exec.jsonl import replace_file

    events = chaos_trace_events(journal, plan)
    replace_file(path, json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        indent=1, sort_keys=True) + "\n")
    return len(events)
