"""The durable result store and the canonical result export.

Every result envelope the interchange completes is appended here --
in-memory always, and as crash-safe JSONL when the store was opened on
a path (one wire document per line after a ``meta`` header, kept by
the project's one append-only log, :class:`repro.exec.jsonl.JsonlLog`:
a torn final line is dropped with a warning on reopen and cut off by
the next append).  The store is a
*journal*: a task that was first rejected and later accepted leaves
both records, and :meth:`ResultStore.final` resolves the last state
per task id.

:meth:`ResultStore.canonical_export` is the service-path determinism
artifact: the final ``ok``/``error`` outcome of every task, in
canonical envelope form (no endpoint ids, no attempt counts, no cache
temperature), sorted by content identity.  :func:`execute_direct`
produces the *same* export from a plain in-process run of the same
envelopes -- the differential suite and the CI ``service`` job compare
the two byte-for-byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from ..exec.jsonl import JsonlLog
from .envelope import (
    SERVICE_SCHEMA,
    SERVICE_VERSION,
    EnvelopeError,
    ResultEnvelope,
    TaskEnvelope,
)

_META = {"kind": "meta", "schema": SERVICE_SCHEMA, "version": SERVICE_VERSION}


class ResultStore:
    """Append-only record of completed result envelopes."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: list[ResultEnvelope] = []
        self._log = None
        if self.path is not None:
            self._log = JsonlLog(self.path, _META, EnvelopeError, "service")
            if self.path.exists():
                self._records = list(self._read(self._log))

    @classmethod
    def open(cls, path: str | Path) -> "ResultStore":
        return cls(path)

    @staticmethod
    def _read(log: JsonlLog) -> Iterable[ResultEnvelope]:
        for lineno, wire in log.read():
            try:
                yield ResultEnvelope.from_wire(wire)
            except EnvelopeError as exc:
                raise EnvelopeError(f"{log.path}:{lineno}: {exc}") from exc

    def append(self, envelope: ResultEnvelope) -> None:
        if self._log is not None:
            self._log.append(envelope.to_wire())
        self._records.append(envelope)

    @property
    def records(self) -> list[ResultEnvelope]:
        """Every appended envelope, in completion order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def final(self) -> dict[str, ResultEnvelope]:
        """Last recorded state per task id (later records win)."""
        out: dict[str, ResultEnvelope] = {}
        for rec in self._records:
            out[rec.task_id] = rec
        return out

    def counts(self) -> dict[str, int]:
        """Final-state tally per status."""
        tally: dict[str, int] = {}
        for rec in self.final().values():
            tally[rec.status] = tally.get(rec.status, 0) + 1
        return tally

    def canonical_export(self) -> str:
        """Byte-stable JSON document of the final task outcomes.

        Sorted by ``(key, task_id)`` -- pure content identity -- and
        built from :meth:`ResultEnvelope.canonical`, so the bytes
        depend only on *what* was asked and *what* came out: identical
        across endpoint layouts, worker counts, cache temperature and
        replays, and identical to :func:`execute_direct` on the same
        envelopes.
        """
        finals = sorted(self.final().values(),
                        key=lambda r: (r.key, r.task_id))
        doc = {"schema": SERVICE_SCHEMA, "version": SERVICE_VERSION,
               "results": [r.canonical() for r in finals]}
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def execute_direct(envelopes: Iterable[TaskEnvelope], *,
                   suite: Any = None,
                   store: ResultStore | None = None) -> ResultStore:
    """The reference path: run envelopes in-process, no service between.

    Uses the same suite facade and result encoding an endpoint would,
    but calls ``suite.run`` directly (or through ``suite.engine`` when
    one is attached, exactly like ``run_all``).  The returned store's
    :meth:`~ResultStore.canonical_export` is the byte-identity baseline
    the service path must reproduce.
    """
    from ..core.suite import encode_result, load_suite
    from .endpoint import _run_kwargs

    suite = suite if suite is not None else load_suite()
    out = store if store is not None else ResultStore()
    for env in envelopes:
        result = suite.run(env.benchmark, env.params.get("nodes"),
                           **_run_kwargs(env.params))
        out.append(ResultEnvelope(
            task_id=env.task_id, client=env.client,
            benchmark=env.benchmark, key=env.key, status="ok",
            value=encode_result(result), endpoint="direct", attempts=1))
    return out
