"""The futures-based submission API (the service's client side).

``client.submit(benchmark, ...)`` packs a content-addressed
:class:`~repro.service.envelope.TaskEnvelope` and hands it to the
service; the returned :class:`ServiceFuture` resolves to the packed
:class:`~repro.service.envelope.ResultEnvelope` once an endpoint
completes it (the funcx submit -> packed result -> future lifecycle).
``future.result()`` unpacks the benchmark result or raises a typed
error for rejected / cancelled / failed tasks -- an admission-control
rejection is an *explicit outcome*, never a silent drop.

Client-side resubmission after a rejection reuses the engine's
:class:`~repro.exec.resilience.BackoffPolicy`, seeded **per envelope**
through the task's content hash: the retry schedule of a given
submission is a pure function of the envelope, not of any process-wide
seed, so service-path replays are deterministic (see the regression
tests in ``tests/test_service_protocol.py``).
"""

from __future__ import annotations

import threading
from typing import Any

from ..core.suite import decode_result, load_suite
from ..exec.engine import _pause
from ..exec.resilience import BackoffPolicy
from .envelope import ResultEnvelope, TaskEnvelope


class ServiceError(RuntimeError):
    """Base class of service-side task failures."""


class RejectedError(ServiceError):
    """The task was refused by admission control (backlog full)."""


class CancelledError(ServiceError):
    """The task was cancelled before an endpoint picked it up."""


class TaskFailedError(ServiceError):
    """The task executed and exhausted its retries with an error."""


class ServiceFuture:
    """Resolution handle of one submitted task envelope."""

    def __init__(self, envelope: TaskEnvelope, service: Any = None):
        self.task = envelope
        self._service = service
        self._done = threading.Event()
        self._result: ResultEnvelope | None = None

    @property
    def task_id(self) -> str:
        return self.task.task_id

    @property
    def status(self) -> str | None:
        """Terminal status, or ``None`` while pending."""
        result = self._result
        return result.status if result is not None else None

    def done(self) -> bool:
        return self._done.is_set()

    def cancelled(self) -> bool:
        return self.status == "cancelled"

    def resolve(self, result: ResultEnvelope) -> None:
        """Service-side completion hook.

        A future resolves exactly once; a second resolution means the
        interchange produced a duplicate result for the task -- the
        invariant the requeue machinery must never break -- so it
        raises instead of silently overwriting.
        """
        if self._done.is_set():
            raise ServiceError(
                f"duplicate result for task {self.task_id}: already "
                f"resolved as {self.status!r}, got {result.status!r}")
        if result.task_id != self.task_id:
            raise ServiceError(
                f"result for task {result.task_id} routed to future "
                f"of task {self.task_id}")
        self._result = result
        self._done.set()

    def envelope(self, timeout: float | None = None) -> ResultEnvelope:
        """The packed result envelope (drains the loopback service if
        the task is still pending)."""
        if not self._done.is_set() and self._service is not None:
            self._service.drain()
        if not self._done.is_set() and not self._done.wait(timeout):
            raise TimeoutError(
                f"task {self.task_id} pending after {timeout} s")
        assert self._result is not None
        return self._result

    def result(self, timeout: float | None = None) -> Any:
        """The decoded benchmark result, or a typed error.

        ``ok`` unpacks to a :class:`~repro.core.benchmark.BenchmarkResult`;
        ``rejected`` raises :class:`RejectedError`, ``cancelled``
        :class:`CancelledError`, ``error`` :class:`TaskFailedError`.
        """
        result = self.envelope(timeout)
        if result.status == "ok":
            return decode_result(result.value)
        if result.status == "rejected":
            raise RejectedError(result.error or "rejected")
        if result.status == "cancelled":
            raise CancelledError(
                result.error or f"task {self.task_id} cancelled")
        raise TaskFailedError(result.error or "task failed")


class ServiceClient:
    """One client identity submitting work to a benchmark service.

    ``retries`` is the *admission* retry budget: a submission bounced
    by the backlog cap is retried after a per-envelope-seeded backoff
    pause (during which the service is stepped, so the loopback
    backlog can drain).  Execution retries stay where they were -- in
    the endpoint engine's fault boundary.
    """

    def __init__(self, service: Any, client_id: str, *, suite: Any = None,
                 retries: int = 0):
        if not client_id:
            raise ValueError("client needs an id")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.service = service
        self.client_id = client_id
        self.suite = suite if suite is not None else load_suite()
        self.retries = retries
        self.backoff = BackoffPolicy()
        self._seq = 0
        self._lock = threading.Lock()

    def _next_seq(self) -> int:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    def make_envelope(self, benchmark: str, *, nodes: int | None = None,
                      variant: Any = None, scale: float = 1.0,
                      real: bool = False, label: str = "",
                      retries: int | None = None,
                      timeout: float | None = None) -> TaskEnvelope:
        """Pack one submission (computes the exec-cache key)."""
        key = self.suite.run_key(benchmark, nodes, variant=variant,
                                 scale=scale, real=real)
        params = {"nodes": nodes,
                  "variant": variant.value if variant else None,
                  "scale": scale, "real": real}
        return TaskEnvelope(client=self.client_id, benchmark=benchmark,
                            key=key, params=params, seq=self._next_seq(),
                            label=label, retries=retries, timeout=timeout)

    def submit(self, benchmark: str, **kwargs: Any) -> ServiceFuture:
        """Submit one benchmark execution; returns its future."""
        return self.submit_envelope(self.make_envelope(benchmark, **kwargs))

    def submit_envelope(self, envelope: TaskEnvelope) -> ServiceFuture:
        future = self.service.submit(envelope)
        attempt = 1
        while future.status == "rejected" and attempt <= self.retries:
            # per-envelope seeding: the pause depends on the task's
            # content hash, not on who constructed the policy
            delay = self.backoff.delay(envelope.display(), attempt,
                                       key=envelope.task_id)
            _pause(self.service.clock, delay)
            self.service.step()
            future = self.service.submit(envelope)
            attempt += 1
        return future

    def cancel(self, future: ServiceFuture) -> bool:
        """Cancel a still-queued task (False once dispatched or done)."""
        return self.service.cancel(future.task_id)
