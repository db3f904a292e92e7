"""Offline rendering of a saved JSONL trace (``jubench report``).

Reads a trace written by :class:`~repro.telemetry.export.JsonlSink`
(or ``RunJournal.to_jsonl``) and reproduces, without re-running
anything:

* the run-journal summary (rebuilt from engine task spans / task
  events),
* a per-benchmark *cost-centre table* aggregating the virtual-MPI
  compute/comm buckets across ranks -- the Sec. IV-A2a presentation
  ("52 % ion channels, 33 % cable equation") for every traced run,
* the metrics report, when a ``metrics`` snapshot event is present.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from .metrics import render_snapshot
from .schema import read_events


def journal_from_events(events: Iterable[dict[str, Any]]) -> Any:
    """Rebuild a :class:`~repro.exec.journal.RunJournal` from a trace.

    Accepts both bare ``task`` events and spans carrying
    ``attrs.kind == "task"`` (the engine's native form).
    """
    from ..exec.journal import RunJournal, TaskRecord  # no import cycle

    journal = RunJournal()
    for event in events:
        if event["type"] == "task":
            journal.append(TaskRecord.from_event(event))
        elif event["type"] == "span" and \
                event["attrs"].get("kind") == "task":
            journal.append(TaskRecord.from_event(
                {**event["attrs"], "started": event["start"],
                 "finished": event["end"]}))
    return journal


def cost_centre_table(events: Iterable[dict[str, Any]]) -> str:
    """Aggregate vmpi events into per-benchmark cost centres."""
    # (benchmark, run) -> bucket -> label -> seconds summed over ranks
    runs: dict[tuple[str, int], dict[str, dict[str, float]]] = {}
    nodes: dict[tuple[str, int], int] = {}
    nranks: dict[tuple[str, int], set[int]] = defaultdict(set)
    for event in events:
        if event["type"] != "vmpi":
            continue
        key = (event["benchmark"], int(event.get("run", 1)))
        table = runs.setdefault(key, {"compute": defaultdict(float),
                                      "comm": defaultdict(float)})
        table[event["bucket"]][event["label"]] += event["seconds"]
        nodes[key] = event["nodes"]
        nranks[key].add(event["rank"])
    if not runs:
        return ""
    lines = ["cost centres (virtual-MPI, summed over ranks)"]
    for key in sorted(runs):
        bench, run = key
        suffix = f" #{run}" if run > 1 else ""
        table = runs[key]
        total = sum(sum(t.values()) for t in table.values())
        lines.append(f"  {bench}{suffix} -- {nodes[key]} nodes, "
                     f"{len(nranks[key])} ranks")
        for bucket in ("compute", "comm"):
            for label, seconds in sorted(table[bucket].items(),
                                         key=lambda kv: -kv[1]):
                share = 100.0 * seconds / total if total > 0 else 0.0
                lines.append(f"    {bucket:<8} {label:<24} "
                             f"{seconds:12.3f} s  {share:5.1f} %")
    return "\n".join(lines)


def render_report(path: Any) -> str:
    """The full offline report of one JSONL trace file."""
    events = list(read_events(path))
    sections: list[str] = []
    journal = journal_from_events(events)
    if len(journal):
        sections.append(journal.summary())
    costs = cost_centre_table(events)
    if costs:
        sections.append(costs)
    snapshots = [e["snapshot"] for e in events if e["type"] == "metrics"]
    if snapshots:
        sections.append(render_snapshot(snapshots[-1]))
    if not sections:
        sections.append(f"{path}: no journal, vmpi or metrics events "
                        f"({len(events)} events total)")
    return "\n\n".join(sections)
