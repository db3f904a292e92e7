"""Endpoints: where service envelopes actually execute.

An endpoint registers with the interchange, advertises its
:class:`Capabilities` (worker count, pool backend, an optional
benchmark whitelist) and holds a *heartbeat lease*: the interchange's
:class:`LeaseTable` tracks the last beat per endpoint on an injectable
clock, and an endpoint that misses ``heartbeat_threshold x
heartbeat_period`` seconds of beats is deterministically declared lost
(the funcx period/threshold idiom), at which point the interchange
requeues its in-flight envelopes.

:class:`LocalEndpoint` is the first worker type: the existing
:class:`~repro.exec.engine.ExecutionEngine` behind an envelope
interface.  Each assigned :class:`~repro.service.envelope.TaskEnvelope`
becomes one engine :class:`~repro.exec.engine.WorkItem` carrying the
envelope's exec-cache key, so service tasks memoise through the same
content-addressed cache, journal through the same run journal, and
span through the same tracer as direct runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..core.suite import decode_result, encode_result, load_suite
from ..core.variants import MemoryVariant
from ..exec.engine import ExecutionEngine, WorkItem
from .envelope import ResultEnvelope, TaskEnvelope


@dataclass(frozen=True)
class Capabilities:
    """What an endpoint advertises at registration time."""

    workers: int = 1
    backend: str = "thread"
    #: benchmarks this endpoint accepts; empty = all of them
    benchmarks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("capabilities need at least one worker")

    def accepts(self, envelope: TaskEnvelope) -> bool:
        return not self.benchmarks or \
            envelope.benchmark in self.benchmarks

    def to_dict(self) -> dict[str, Any]:
        return {"workers": self.workers, "backend": self.backend,
                "benchmarks": list(self.benchmarks)}


class LeaseTable:
    """Heartbeat leases over an injectable clock.

    ``period`` is the advertised beat interval; an endpoint whose last
    beat is older than ``period * threshold`` at :meth:`expired` time
    has missed its whole tolerance window and is reported lost.  All
    arithmetic runs on the injected ``clock``, so lease expiry in tests
    is a pure function of how far the virtual clock was advanced.
    """

    def __init__(self, clock: Callable[[], float], *,
                 period: float = 5.0, threshold: int = 3):
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if threshold < 1:
            raise ValueError("heartbeat threshold must be >= 1")
        self.clock = clock
        self.period = period
        self.threshold = threshold
        self._last: dict[str, float] = {}

    @property
    def window(self) -> float:
        """Seconds of missed beats that cost an endpoint its lease."""
        return self.period * self.threshold

    def register(self, endpoint_id: str) -> None:
        self._last[endpoint_id] = self.clock()

    def beat(self, endpoint_id: str) -> None:
        if endpoint_id in self._last:
            self._last[endpoint_id] = self.clock()

    def drop(self, endpoint_id: str) -> None:
        self._last.pop(endpoint_id, None)

    def deadline(self, endpoint_id: str) -> float:
        """Virtual time at which the endpoint's lease lapses."""
        return self._last[endpoint_id] + self.window

    def expired(self) -> list[str]:
        """Endpoints whose lease has lapsed, in registration order."""
        now = self.clock()
        return [eid for eid, last in self._last.items()
                if now - last > self.window]

    def holders(self) -> list[str]:
        return list(self._last)


def _run_kwargs(params: dict[str, Any]) -> dict[str, Any]:
    """Translate envelope params into ``suite.run`` keyword arguments."""
    variant = params.get("variant")
    return {"variant": MemoryVariant(variant) if variant else None,
            "scale": float(params.get("scale", 1.0)),
            "real": bool(params.get("real", False))}


class LocalEndpoint:
    """The :class:`ExecutionEngine` as one worker type behind the service.

    ``execute`` maps a batch of task envelopes onto engine work items
    (label, cache key, retries/timeout overrides, result codecs) and
    packs the outcomes back into result envelopes.  The engine's fault
    boundary does the heavy lifting: a task that exhausts its retries
    comes back as ``status="error"`` instead of unwinding the service.
    """

    def __init__(self, endpoint_id: str, *, suite: Any = None,
                 engine: ExecutionEngine | None = None,
                 capabilities: Capabilities | None = None):
        if not endpoint_id:
            raise ValueError("endpoint needs an id")
        self.endpoint_id = endpoint_id
        self.suite = suite if suite is not None else load_suite()
        caps = capabilities if capabilities is not None else Capabilities()
        self.caps = caps
        self.engine = engine if engine is not None else ExecutionEngine(
            workers=caps.workers, backend=caps.backend)

    def capabilities(self) -> Capabilities:
        return self.caps

    def execute(self,
                envelopes: list[TaskEnvelope]) -> list[ResultEnvelope]:
        """Run a batch of envelopes; one result envelope each, in
        assignment order."""
        if not envelopes:
            return []
        items = [WorkItem(fn=self.suite.run,
                          args=(env.benchmark, env.params.get("nodes")),
                          kwargs=_run_kwargs(env.params),
                          key=env.key, label=env.display(),
                          retries=env.retries, timeout=env.timeout,
                          encode=encode_result, decode=decode_result)
                 for env in envelopes]
        results = []
        for env, outcome in zip(envelopes, self.engine.map(items)):
            if outcome.ok:
                results.append(ResultEnvelope(
                    task_id=env.task_id, client=env.client,
                    benchmark=env.benchmark, key=env.key, status="ok",
                    value=encode_result(outcome.value),
                    endpoint=self.endpoint_id,
                    attempts=outcome.attempts, cache=outcome.cache))
            else:
                results.append(ResultEnvelope(
                    task_id=env.task_id, client=env.client,
                    benchmark=env.benchmark, key=env.key,
                    status="error", error=outcome.error,
                    endpoint=self.endpoint_id,
                    attempts=outcome.attempts, cache=outcome.cache))
        return results
