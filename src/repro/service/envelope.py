"""Versioned, content-addressed task and result envelopes.

The wire vocabulary of the benchmark service: a client packs one
benchmark execution request into a :class:`TaskEnvelope`, the
interchange routes it to an endpoint, and the endpoint answers with a
:class:`ResultEnvelope`.  Both sides are plain JSON documents
(funcx-style packed task messages), stamped with the schema id
:data:`SERVICE_SCHEMA` so incompatible peers fail loudly instead of
misinterpreting fields.

Identity is *content addressing*, not uuids: :attr:`TaskEnvelope.task_id`
is a stable hash of the envelope's canonical payload, so the same
submission always names the same task -- resubmissions deduplicate, a
replayed spool produces the same ids, and the id is independent of the
JSON field order it arrived in.  The ``key`` field carries the
execution identity the rest of the system already understands: it is a
:func:`repro.exec.cache.result_key` content address, so the endpoint's
:class:`~repro.exec.engine.ExecutionEngine` memoises service tasks in
the same cache direct runs use, and
:attr:`repro.history.record.RunRecord.record_key` provenance lines up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any

from ..exec.cache import stable_hash

#: Wire-schema identity stamped on every envelope.
SERVICE_SCHEMA = "repro.service/v1"
SERVICE_VERSION = 1

#: Terminal states a result envelope may report.
RESULT_STATUSES = ("ok", "error", "rejected", "cancelled")


class EnvelopeError(ValueError):
    """An envelope violates the wire schema (bad version, bad field)."""


def _require(wire: dict[str, Any], name: str, kind: str) -> Any:
    if name not in wire:
        raise EnvelopeError(
            f"{kind} envelope missing required field {name!r}; got "
            f"fields {sorted(wire)}")
    return wire[name]


def _check_schema(wire: dict[str, Any], kind: str) -> None:
    schema = wire.get("schema")
    if schema != SERVICE_SCHEMA:
        raise EnvelopeError(
            f"unsupported {kind} envelope schema {schema!r}; this "
            f"service speaks {SERVICE_SCHEMA!r} -- re-encode the "
            f"envelope with a matching client (or upgrade this service)")


@dataclass(frozen=True)
class TaskEnvelope:
    """One packed benchmark-execution request.

    ``params`` is the resolved parameter set (``nodes``, ``variant``,
    ``scale``, ``real``) the endpoint's suite facade understands;
    ``key`` is the exec-cache content address of the execution;
    ``seq`` is the client-local submission ordinal (it enters the task
    id, so a client submitting the same benchmark twice names two
    distinct tasks); ``retries``/``timeout`` override the endpoint
    engine's defaults for this task.
    """

    client: str
    benchmark: str
    key: str
    params: dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    label: str = ""
    retries: int | None = None
    timeout: float | None = None
    schema: str = SERVICE_SCHEMA

    def __post_init__(self) -> None:
        if not self.client:
            raise EnvelopeError("task envelope needs a client id")
        if not self.benchmark:
            raise EnvelopeError("task envelope needs a benchmark name")
        if not self.key:
            raise EnvelopeError("task envelope needs an execution key")
        if self.seq < 0:
            raise EnvelopeError("task envelope seq must be >= 0")

    @cached_property
    def task_id(self) -> str:
        """Content address of this submission (stable across field
        order, processes and replays).  Computed once per envelope: it
        is frozen, and :meth:`with_seq` builds a new one."""
        digest = stable_hash({
            "schema": self.schema, "client": self.client,
            "benchmark": self.benchmark, "key": self.key,
            "params": self.params, "seq": self.seq})
        slug = "".join(c if c.isalnum() or c in "-._" else "_"
                       for c in self.benchmark)
        return f"{slug}-{digest[:24]}"

    def display(self) -> str:
        return self.label or f"run:{self.benchmark}"

    def with_seq(self, seq: int) -> "TaskEnvelope":
        return replace(self, seq=seq)

    # -- wire form ----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """The JSON-safe wire document (round-trips via
        :meth:`from_wire`)."""
        return {"schema": self.schema, "kind": "task",
                "task_id": self.task_id, "client": self.client,
                "benchmark": self.benchmark, "key": self.key,
                "params": dict(self.params), "seq": self.seq,
                "label": self.label, "retries": self.retries,
                "timeout": self.timeout}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "TaskEnvelope":
        """Decode a wire document; unknown schemas are rejected with an
        actionable :class:`EnvelopeError`."""
        if not isinstance(wire, dict):
            raise EnvelopeError(
                f"task envelope must be a JSON object, got "
                f"{type(wire).__name__}")
        _check_schema(wire, "task")
        retries = wire.get("retries")
        timeout = wire.get("timeout")
        env = cls(client=str(_require(wire, "client", "task")),
                  benchmark=str(_require(wire, "benchmark", "task")),
                  key=str(_require(wire, "key", "task")),
                  params=dict(wire.get("params", {})),
                  seq=int(wire.get("seq", 0)),
                  label=str(wire.get("label", "")),
                  retries=None if retries is None else int(retries),
                  timeout=None if timeout is None else float(timeout))
        claimed = wire.get("task_id")
        if claimed is not None and claimed != env.task_id:
            raise EnvelopeError(
                f"task envelope id {claimed!r} does not match its "
                f"content address {env.task_id!r}; the envelope was "
                f"altered in transit -- re-pack it from its source")
        return env

    @classmethod
    def from_file(cls, path: str | Path) -> "TaskEnvelope":
        """Decode one spool file; a file that is not UTF-8 JSON or not a
        valid envelope is an :class:`EnvelopeError` naming it."""
        try:
            wire = json.loads(Path(path).read_bytes())
        except ValueError as exc:   # not JSON, or not UTF-8
            raise EnvelopeError(f"{path}: not JSON: {exc}") from exc
        try:
            return cls.from_wire(wire)
        except (TypeError, ValueError) as exc:
            raise EnvelopeError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ResultEnvelope:
    """One packed task outcome (the endpoint's answer).

    ``value`` is the JSON-safe encoded benchmark result (see
    :func:`repro.core.suite.encode_result`) when ``status == "ok"``.
    ``endpoint``/``attempts``/``cache`` describe *how* the result was
    produced; they are scheduling provenance and are excluded from
    :meth:`canonical`, which is why service-path exports stay
    byte-identical across endpoint layouts, worker counts and cache
    temperature.
    """

    task_id: str
    client: str
    benchmark: str
    key: str
    status: str
    value: Any = None
    error: str | None = None
    endpoint: str = ""
    attempts: int = 0
    cache: str = "off"
    schema: str = SERVICE_SCHEMA

    def __post_init__(self) -> None:
        if self.status not in RESULT_STATUSES:
            raise EnvelopeError(
                f"result envelope status {self.status!r} not in "
                f"{RESULT_STATUSES}")
        if self.status in ("error", "rejected") and not self.error:
            raise EnvelopeError(
                f"result envelope with status {self.status!r} needs an "
                f"error message")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical(self) -> dict[str, Any]:
        """The replay-stable form: what ran and what came out, never
        where or how fast."""
        return {"schema": self.schema, "task_id": self.task_id,
                "client": self.client, "benchmark": self.benchmark,
                "key": self.key, "status": self.status,
                "value": self.value, "error": self.error}

    @property
    def result_id(self) -> str:
        """Content address of the canonical outcome."""
        return stable_hash(self.canonical())[:24]

    # -- wire form ----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        wire = self.canonical()
        wire.update({"kind": "result", "endpoint": self.endpoint,
                     "attempts": self.attempts, "cache": self.cache})
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ResultEnvelope":
        if not isinstance(wire, dict):
            raise EnvelopeError(
                f"result envelope must be a JSON object, got "
                f"{type(wire).__name__}")
        _check_schema(wire, "result")
        return cls(task_id=str(_require(wire, "task_id", "result")),
                   client=str(_require(wire, "client", "result")),
                   benchmark=str(_require(wire, "benchmark", "result")),
                   key=str(_require(wire, "key", "result")),
                   status=str(_require(wire, "status", "result")),
                   value=wire.get("value"), error=wire.get("error"),
                   endpoint=str(wire.get("endpoint", "")),
                   attempts=int(wire.get("attempts", 0)),
                   cache=str(wire.get("cache", "off")))
