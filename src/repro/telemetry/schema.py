"""The telemetry JSONL event schema (shared with the run journal).

One JSON object per line; the first line is a ``meta`` header.  Event
types:

``meta``
    ``{"type": "meta", "version": 1, "schema": "repro.telemetry/v1"}``
``span``
    A finished span: ``span_id``/``parent_id`` tree links, ``name``,
    ``start``/``end`` (tracer-clock seconds), ``thread`` (export lane)
    and free-form ``attrs``.  Engine task spans carry
    ``attrs.kind == "task"`` and the journal's bookkeeping fields.
``task``
    A bare run-journal record (``RunJournal.to_jsonl``); same fields
    as a task span's attrs plus ``started``/``finished``.
``vmpi``
    One virtual-MPI cost bucket: ``benchmark``, ``nodes``, ``rank``,
    ``bucket`` ("compute" | "comm"), ``label`` and virtual ``seconds``.
``metrics``
    A full metrics-registry ``snapshot``.
``fault``
    One injected fault firing (``repro.faults``): ``category``
    ("task" | "node" | "link" | "straggler" | "breaker"), ``target``
    (task label / ``node:N`` / link class), ``action`` and the
    tracer-clock time ``at``.
``service``
    One control-plane decision (``repro.service``): ``action``
    (submit / reject / dispatch / requeue / lost / crash / restore /
    cancel / complete / register), ``target`` (task id or endpoint id)
    and the service-clock time ``at``.

:func:`validate_event` / :func:`validate_file` enforce this shape; the
CI smoke job runs ``python -m repro.telemetry.schema trace.jsonl``.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..exec.jsonl import JsonlReader

SCHEMA_VERSION = 1
SCHEMA_NAME = "repro.telemetry/v1"

_NUMBER = (int, float)

#: required fields per event type: name -> allowed types
_REQUIRED: dict[str, dict[str, tuple[type, ...]]] = {
    "meta": {"version": (int,), "schema": (str,)},
    "span": {"span_id": (int,), "parent_id": (int, type(None)),
             "name": (str,), "start": _NUMBER, "end": _NUMBER,
             "thread": (int,), "attrs": (dict,)},
    "task": {"index": (int,), "label": (str,), "status": (str,),
             "cache": (str,), "attempts": (int,), "started": _NUMBER,
             "finished": _NUMBER},
    "vmpi": {"benchmark": (str,), "nodes": (int,), "rank": (int,),
             "bucket": (str,), "label": (str,), "seconds": _NUMBER},
    "metrics": {"snapshot": (dict,)},
    "fault": {"category": (str,), "target": (str,), "action": (str,),
              "at": _NUMBER},
    "service": {"action": (str,), "target": (str,), "at": _NUMBER},
}

_TASK_STATUSES = ("ok", "error")
_CACHE_STATES = ("hit", "miss", "off")
_VMPI_BUCKETS = ("compute", "comm")
_FAULT_CATEGORIES = ("task", "node", "link", "straggler", "breaker")
_SERVICE_ACTIONS = ("register", "submit", "reject", "dispatch", "requeue",
                    "lost", "crash", "restore", "cancel", "complete")


class SchemaError(ValueError):
    """A telemetry event violates the JSONL schema."""


def meta_event() -> dict[str, Any]:
    """The header line every sink writes first."""
    return {"type": "meta", "version": SCHEMA_VERSION,
            "schema": SCHEMA_NAME}


def validate_event(obj: Any) -> dict[str, Any]:
    """Check one event against the schema; returns it, or raises
    :class:`SchemaError` with an actionable message."""
    if not isinstance(obj, dict):
        raise SchemaError(f"event must be an object, got {type(obj).__name__}")
    etype = obj.get("type")
    if etype not in _REQUIRED:
        raise SchemaError(f"unknown event type {etype!r}; "
                          f"expected one of {sorted(_REQUIRED)}")
    for name, types in _REQUIRED[etype].items():
        if name not in obj:
            raise SchemaError(f"{etype} event missing field {name!r}")
        if not isinstance(obj[name], types) or (
                isinstance(obj[name], bool) and bool not in types):
            raise SchemaError(
                f"{etype} event field {name!r} has type "
                f"{type(obj[name]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")
    if etype == "span":
        if obj["end"] < obj["start"]:
            raise SchemaError(f"span {obj['name']!r} ends before it starts")
        kind = obj["attrs"].get("kind")
        if kind == "task":
            _validate_task_fields(obj["attrs"], where="task span attrs")
    elif etype == "task":
        _validate_task_fields(obj, where="task event")
        if obj["finished"] < obj["started"]:
            raise SchemaError("task event finishes before it starts")
    elif etype == "vmpi":
        if obj["bucket"] not in _VMPI_BUCKETS:
            raise SchemaError(f"vmpi bucket {obj['bucket']!r} not in "
                              f"{_VMPI_BUCKETS}")
        if obj["seconds"] < 0 or obj["rank"] < 0:
            raise SchemaError("vmpi event with negative rank/seconds")
    elif etype == "fault":
        if obj["category"] not in _FAULT_CATEGORIES:
            raise SchemaError(f"fault category {obj['category']!r} not in "
                              f"{_FAULT_CATEGORIES}")
    elif etype == "service":
        if obj["action"] not in _SERVICE_ACTIONS:
            raise SchemaError(f"service action {obj['action']!r} not in "
                              f"{_SERVICE_ACTIONS}")
        if obj["at"] < 0:
            raise SchemaError("service event with negative time")
    elif etype == "meta" and obj["schema"] != SCHEMA_NAME:
        raise SchemaError(f"unsupported schema {obj['schema']!r}; "
                          f"this reader understands {SCHEMA_NAME!r}")
    return obj


def _validate_task_fields(fields: dict[str, Any], *, where: str) -> None:
    status = fields.get("status")
    if status not in _TASK_STATUSES:
        raise SchemaError(f"{where}: status {status!r} not in "
                          f"{_TASK_STATUSES}")
    cache = fields.get("cache")
    if cache not in _CACHE_STATES:
        raise SchemaError(f"{where}: cache {cache!r} not in {_CACHE_STATES}")
    if status == "error" and not fields.get("error"):
        raise SchemaError(f"{where}: error status without an error string")


def read_events(path: Any) -> Iterator[dict[str, Any]]:
    """Yield validated events from a JSONL trace file.

    A trace cut mid-line by a crash yields its complete events, with one
    warning on stderr for the dropped tail (:mod:`repro.exec.jsonl`).
    """
    for lineno, obj in JsonlReader(path, SchemaError, "telemetry"):
        try:
            yield validate_event(obj)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc


def validate_file(path: Any) -> dict[str, int]:
    """Validate a whole trace; returns per-type event counts."""
    counts: dict[str, int] = {}
    for event in read_events(path):
        counts[event["type"]] = counts.get(event["type"], 0) + 1
    if not counts:
        raise SchemaError(f"{path}: empty trace")
    if "meta" not in counts:
        raise SchemaError(f"{path}: missing meta header line")
    return counts


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.telemetry.schema TRACE.jsonl [...]``"""
    import sys
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.telemetry.schema TRACE.jsonl [...]")
        return 2
    for path in paths:
        counts = validate_file(path)
        total = sum(counts.values())
        detail = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{path}: OK -- {total} events ({detail})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
