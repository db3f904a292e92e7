"""Resilience policies for the execution engine.

Two policies make injected (or organic) faults survivable without
sacrificing determinism:

* :class:`BackoffPolicy` -- exponential backoff between retry attempts
  with *seeded* jitter: the delay is a pure function of
  ``(seed, label, attempt)`` via a stable content hash, so the same
  run produces the same delays on any worker count.  Under a virtual
  clock (:class:`~repro.telemetry.spans.ManualClock`) the delay
  advances the clock instead of sleeping.
* :class:`CircuitBreaker` -- a per-label consecutive-failure counter
  that short-circuits known-bad tasks.  The engine applies it with
  *batch-snapshot semantics*: allow/deny is decided for every item of
  a batch before any of them runs, and outcomes are recorded in
  submission order after the batch completes.  That keeps workers=1
  and workers=8 bit-identical (a mid-batch state update would let the
  race winner change later decisions).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .cache import hash_fraction


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``delay(label, attempt)`` returns the pause *after* failed attempt
    ``attempt`` (1-based): ``base * factor**(attempt-1)`` capped at
    ``max_delay``, then jittered multiplicatively into
    ``[1 - jitter/2, 1 + jitter/2)`` with a hash-derived uniform draw.
    Frozen dataclass, so it pickles into process-pool workers.

    Pass ``key`` (a content address: the work item's cache key) to
    seed the draw **per item**: the jitter becomes a pure function of
    ``(key, attempt)`` alone, so a replay in another process, with
    another policy instance or another per-process ``seed``, reproduces
    the same schedule.  Without a key the draw falls back to the
    legacy per-policy ``(seed, label, attempt)`` seeding.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1 or self.max_delay < 0:
            raise ValueError("base/max_delay must be >= 0, factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, label: str, attempt: int,
              key: str | None = None) -> float:
        raw = min(self.base * self.factor ** max(0, attempt - 1),
                  self.max_delay)
        if self.jitter == 0.0:
            return raw
        if key is not None:
            u = hash_fraction("backoff", key, attempt)
        else:
            u = hash_fraction("backoff", self.seed, label, attempt)
        return raw * (1.0 + self.jitter * (u - 0.5))


class CircuitBreaker:
    """Per-label circuit breaker with batch-snapshot semantics.

    After ``threshold`` consecutive failures of a label the circuit
    opens: the next ``cooldown`` scheduled executions of that label
    are skipped outright (recorded as blocked, no attempt runs).
    Once the cooldown is spent the circuit half-opens and one probe
    execution is allowed; success closes the circuit, failure re-opens
    it for another cooldown.

    Thread-safe; the engine only calls it from the coordinating
    thread (decisions before the batch, recordings after), so the lock
    is a safety net for external users, not a sequencing mechanism.
    """

    def __init__(self, threshold: int = 3, cooldown: int = 2) -> None:
        if threshold < 1 or cooldown < 1:
            raise ValueError("threshold and cooldown must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures: dict[str, int] = {}
        self._skips_left: dict[str, int] = {}
        self._lock = threading.Lock()

    def state(self, label: str) -> str:
        """``closed`` | ``open`` | ``half-open`` for a label."""
        with self._lock:
            if self._skips_left.get(label, 0) > 0:
                return "open"
            if self._failures.get(label, 0) >= self.threshold:
                return "half-open"
            return "closed"

    def allow(self, label: str) -> bool:
        """Whether a scheduled execution of ``label`` may run.

        Does not mutate state -- the engine snapshots decisions for a
        whole batch, then applies them via :meth:`block` /
        :meth:`record`.
        """
        with self._lock:
            return self._skips_left.get(label, 0) <= 0

    def block(self, label: str) -> None:
        """Consume one skip from an open circuit."""
        with self._lock:
            left = self._skips_left.get(label, 0)
            if left > 0:
                self._skips_left[label] = left - 1

    def record(self, label: str, ok: bool) -> None:
        """Feed an execution outcome back into the breaker."""
        with self._lock:
            if ok:
                self._failures[label] = 0
                self._skips_left[label] = 0
                return
            failures = self._failures.get(label, 0) + 1
            self._failures[label] = failures
            if failures >= self.threshold:
                self._skips_left[label] = self.cooldown
