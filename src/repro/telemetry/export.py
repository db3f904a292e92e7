"""Telemetry exporters: JSONL event sink and Chrome ``trace_event``.

Two output formats, chosen by file extension at the CLI:

* ``*.jsonl`` -- a streaming, append-per-event sink
  (:class:`JsonlSink`): every span/event is written and flushed the
  moment it finishes, so a crashed run still leaves a readable trace
  up to the crash point.  ``jubench report`` re-renders it offline.
* ``*.json`` -- the Chrome ``trace_event`` format
  (:func:`write_chrome_trace`), loadable in Perfetto or
  ``chrome://tracing``: suite/engine spans render as nested slices on
  their worker-thread lanes, and every virtual-MPI run renders as its
  own process with one *thread per rank*, whose compute/comm cost
  buckets (:class:`~repro.vmpi.trace.RankTrace`) become per-rank
  timeline slices -- the Fig. 3 computation/communication split,
  zoomable.
"""

from __future__ import annotations

import json
import threading
from typing import Any, TextIO

from ..exec.jsonl import encode_line, json_safe, replace_file
from .schema import meta_event
from .spans import SpanRecord, Tracer

#: Chrome pid of the suite/engine span timeline.
SUITE_PID = 1
#: First pid used for virtual-MPI rank timelines (one pid per run).
VMPI_PID_BASE = 100


class JsonlSink:
    """Append-per-event JSONL writer (crash-safe, thread-safe).

    Subscribe it to a tracer: ``tracer.subscribe(JsonlSink(path))``.
    Each event is one JSON line, flushed immediately.
    """

    def __init__(self, path_or_file: Any):
        self._lock = threading.Lock()
        if hasattr(path_or_file, "write"):
            self._fh: TextIO = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        self.path = getattr(self._fh, "name", None)
        self.emit(meta_event())

    def emit(self, event: dict[str, Any]) -> None:
        line = encode_line(json_safe(event))
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    # tracer subscriber protocol ------------------------------------------
    def on_span(self, record: SpanRecord) -> None:
        self.emit(record.to_event())

    def on_event(self, event: dict[str, Any]) -> None:
        self.emit(event)

    def close(self) -> None:
        with self._lock:
            if self._owns and not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def emit_vmpi(tracer: Tracer, benchmark: str, nodes: int,
              spmd: Any) -> None:
    """Emit one ``vmpi`` event per rank x cost bucket of an SPMD run.

    ``spmd`` is a :class:`~repro.vmpi.trace.SpmdResult` (duck-typed:
    only ``.traces`` with ``compute``/``comm`` label buckets is read).
    Events carry a per-benchmark ``run`` ordinal so repeated runs (a
    scaling sweep) render as separate rank timelines.  A tracer whose
    ``timelines`` is off gets nothing: no reader would see the events.
    """
    if not (tracer.enabled and tracer.timelines):
        return
    run = 1 + tracer.last_vmpi_run(benchmark)
    for rank, trace in enumerate(spmd.traces):
        for bucket, table in (("compute", trace.compute),
                              ("comm", trace.comm)):
            for label, seconds in sorted(table.items()):
                tracer.emit({"type": "vmpi", "benchmark": benchmark,
                             "nodes": int(nodes), "rank": rank,
                             "run": run, "bucket": bucket, "label": label,
                             "seconds": float(seconds)})


def reemit_events(tracer: Tracer, events: list[dict[str, Any]]) -> None:
    """Adopt out-of-band events recorded by a worker-side tracer.

    vmpi run ordinals are local to the worker's collector (each task
    starts counting at 1); remap them onto fresh per-benchmark
    ordinals in the parent tracer so sweep points keep distinct rank
    timelines.
    """
    if not tracer.enabled:
        return
    remap: dict[tuple[str, int], int] = {}
    for event in events:
        if event.get("type") == "vmpi":
            key = (event["benchmark"], int(event.get("run", 1)))
            if key not in remap:
                # emitted below, so the next new key counts on from it
                remap[key] = 1 + tracer.last_vmpi_run(key[0])
            event = dict(event, run=remap[key])
        tracer.emit(event)


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def chrome_trace_events(spans: list[SpanRecord],
                        events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Translate spans + vmpi events into ``trace_event`` dicts.

    Spans become complete ("X") slices on ``pid=SUITE_PID`` with their
    recorded thread lane as tid; each distinct (benchmark, occurrence)
    group of vmpi events becomes its own process whose tids are the
    MPI ranks, slices laid out back-to-back in virtual time per rank.
    """
    out: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": SUITE_PID, "tid": 0,
         "args": {"name": "jubench suite"}},
    ]
    threads = sorted({s.thread for s in spans})
    for tid in threads:
        out.append({"ph": "M", "name": "thread_name", "pid": SUITE_PID,
                    "tid": tid,
                    "args": {"name": "main" if tid == 0
                             else f"worker-{tid}"}})
    for span in spans:
        out.append({
            "ph": "X", "name": span.name, "cat": "span",
            "pid": SUITE_PID, "tid": span.thread,
            "ts": span.start * 1e6,
            "dur": max(span.end - span.start, 0.0) * 1e6,
            "args": json_safe(span.attrs),
        })

    # vmpi rank timelines: one pid per SPMD run, one tid per rank.
    runs: dict[tuple[str, int], int] = {}        # (benchmark, run) -> pid
    cursors: dict[tuple[int, int], float] = {}   # (pid, rank) -> virtual t
    for event in events:
        if event.get("type") != "vmpi":
            continue
        bench = event["benchmark"]
        key = (bench, int(event.get("run", 1)))
        if key not in runs:
            pid = VMPI_PID_BASE + len(runs)
            runs[key] = pid
            suffix = f" #{key[1]}" if key[1] > 1 else ""
            out.append({"ph": "M", "name": "process_name", "pid": pid,
                        "tid": 0,
                        "args": {"name": f"vmpi:{bench}{suffix} "
                                 f"({event['nodes']} nodes)"}})
        pid = runs[key]
        rank = event["rank"]
        if (pid, rank) not in cursors:
            cursors[(pid, rank)] = 0.0
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": rank, "args": {"name": f"rank {rank}"}})
        start = cursors[(pid, rank)]
        cursors[(pid, rank)] = start + event["seconds"]
        out.append({
            "ph": "X", "name": event["label"], "cat": event["bucket"],
            "pid": pid, "tid": rank, "ts": start * 1e6,
            "dur": event["seconds"] * 1e6,
            "args": {"bucket": event["bucket"],
                     "benchmark": bench},
        })
    return out


def write_chrome_trace(path: Any, tracer: Tracer) -> int:
    """Write the tracer's retained spans + events as a Chrome trace.

    The file is replaced atomically, so an interrupted export keeps the
    previous trace.  Returns the number of ``trace_event`` entries written.
    """
    trace = {
        "traceEvents": chrome_trace_events(tracer.finished(),
                                           tracer.events()),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry",
                      "schema": "chrome trace_event"},
    }
    replace_file(path, json.dumps(trace, sort_keys=True) + "\n")
    return len(trace["traceEvents"])
