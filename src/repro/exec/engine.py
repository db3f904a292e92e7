"""The parallel + incremental execution engine.

The suite's unit of work -- run one benchmark, one scaling point, one
service task -- is independent of its siblings, so a run is a batch of
:class:`WorkItem` thunks.  The engine executes a batch

* **concurrently** on a serial, thread-pool or process-pool backend
  with a configurable worker count, returning outcomes in *submission
  order* regardless of completion order (determinism first),
* **incrementally** through an optional content-addressed
  :class:`~repro.exec.cache.ResultCache` -- a keyed item whose result
  is cached is answered without executing (the exaCB property),
* **fault-bounded**: each item runs inside a guard with configurable
  retries and a per-attempt timeout, and failures are captured into the
  :class:`TaskOutcome` instead of aborting the batch.

``map`` is the degrade-gracefully API (callers inspect per-item
errors); ``run`` is the strict API (first failure re-raises the
original exception).  Every processed item leaves a ``task:`` span
(with per-attempt child spans) on the engine's
:class:`~repro.telemetry.spans.Tracer`; the run journal subscribes to
that span stream, so journalling and tracing are one path.  Process
workers execute under a local span collector and ship their span/event
batches back with the outcome; the parent rebases the timestamps onto
its own clock before grafting them in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..telemetry.export import reemit_events
from ..telemetry.metrics import MetricsRegistry, default_registry
from ..telemetry.spans import SpanRecord, Tracer, use_tracer
from .cache import ResultCache
from .journal import RunJournal, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - the pools are imported on first use
    from concurrent.futures import Executor

#: Supported execution backends.
BACKENDS = ("serial", "thread", "process")


class EngineError(RuntimeError):
    """A strict engine run hit a failed task."""


class TaskTimeout(RuntimeError):
    """A task attempt exceeded its time budget.

    The timeout is *cooperative* and enforced post-hoc: the attempt
    runs to completion, then its wall time is compared with the
    budget.  A too-slow attempt is therefore never preempted -- it
    fails after the fact with this exception carrying the measured
    ``elapsed`` time and the ``budget`` it blew (both also in the
    message, so journalled ``error`` strings show the overrun).
    """

    def __init__(self, message: str, *, elapsed: float = 0.0,
                 budget: float = 0.0):
        super().__init__(message)
        self.elapsed = elapsed
        self.budget = budget


@dataclass
class WorkItem:
    """One schedulable unit of work.

    ``fn(*args, **kwargs)`` produces the result.  ``key`` (optional)
    makes the item cacheable; ``encode``/``decode`` translate the
    result to/from the cache representation (needed for JSON disk
    caches holding rich objects).  ``retries``/``timeout`` override the
    engine defaults for this item.  For the process backend ``fn`` and
    its arguments must be picklable.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    key: str | None = None
    label: str = ""
    retries: int | None = None
    timeout: float | None = None
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None

    def display(self, index: int) -> str:
        return self.label or getattr(self.fn, "__name__", f"task-{index}")


@dataclass
class TaskOutcome:
    """What became of one work item (the fault boundary's output)."""

    index: int
    label: str
    value: Any = None
    error: str | None = None
    exception: BaseException | None = None
    attempts: int = 0
    cache: str = "off"        # "hit" | "miss" | "off"
    started: float = 0.0
    finished: float = 0.0
    key: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def duration(self) -> float:
        return max(0.0, self.finished - self.started)

    def record(self) -> TaskRecord:
        return TaskRecord(index=self.index, label=self.label,
                          status="ok" if self.ok else "error",
                          cache=self.cache, attempts=self.attempts,
                          started=self.started, finished=self.finished,
                          key=self.key, error=self.error)


@dataclass
class _Attempt:
    ok: bool
    value: Any
    attempts: int
    started: float
    finished: float
    error: BaseException | None
    #: spans recorded inside the attempt (per-attempt spans plus
    #: anything the task itself emitted); picklable, shipped back from
    #: process workers with the outcome
    spans: list[SpanRecord] = field(default_factory=list)
    #: out-of-band telemetry events (vmpi cost buckets, ...) recorded
    #: inside the attempt, shipped back the same way
    events: list[dict[str, Any]] = field(default_factory=list)
    #: identity of the executing thread (export-lane assignment)
    thread_ident: int = 0


def _pause(clock: Callable[[], float], seconds: float) -> None:
    """Backoff pause: advance a virtual clock, else sleep for real.

    Virtual clocks (:class:`~repro.telemetry.spans.ManualClock`) expose
    ``advance``; under one, backoff costs simulated time only -- which
    keeps chaos runs fast *and* deterministic.
    """
    advance = getattr(clock, "advance", None)
    if advance is not None:
        advance(seconds)
    elif seconds > 0:
        time.sleep(seconds)


def _run_guarded(fn: Callable[..., Any], args: tuple,
                 kwargs: dict[str, Any], retries: int,
                 timeout: float | None,
                 clock: Callable[[], float] = time.perf_counter,
                 guard: Callable[[int], None] | None = None,
                 backoff: Any = None, label: str = "",
                 key: str | None = None,
                 timelines: bool = True) -> _Attempt:
    """Run one item inside the fault boundary.

    Module-level so the process backend can pickle it.

    **Cooperative timeout semantics**: the timeout is enforced
    *post-hoc* on the attempt's wall time -- simulated workloads cannot
    be preempted portably, so an attempt that exceeds ``timeout`` still
    runs to completion before :class:`TaskTimeout` is raised.  The
    too-slow attempt then counts as a failure (retried like any other);
    if it was the final attempt the outcome reports ``ok=False`` with
    the measured elapsed time in the error string.

    ``guard`` is the fault-injection hook: called with the 1-based
    attempt ordinal before the payload runs, it may raise
    ``InjectedFault`` (captured and retried like an organic failure).
    ``backoff`` (a :class:`~repro.exec.resilience.BackoffPolicy`)
    inserts a deterministic pause between failed attempts, advancing
    virtual clocks instead of sleeping.  When the item carries a
    content-addressed ``key`` it seeds the backoff jitter, so the
    retry schedule of a keyed item replays identically in any process
    (service-path determinism); keyless items keep the per-policy
    ``(seed, label, attempt)`` draw.

    Every attempt runs under a local span collector installed as the
    ambient tracer, so instrumented task code (benchmark runs, nested
    suite calls) records spans even inside process workers; the batch
    travels back in :attr:`_Attempt.spans` and the parent grafts it
    under the task span (rebasing clocks for the process backend).
    With ``timelines`` off the collector keeps no per-rank vmpi events,
    so a run whose tracer nobody reads never builds them.
    """
    collector = Tracer(clock=clock)
    collector.timelines = timelines
    started = clock()
    attempts = 0
    last: BaseException | None = None
    ok = False
    value: Any = None
    with use_tracer(collector):
        while attempts <= retries:
            attempts += 1
            with collector.span("attempt", n=attempts) as span:
                t0 = clock()
                try:
                    if guard is not None:
                        guard(attempts)
                    value = fn(*args, **kwargs)
                    elapsed = clock() - t0
                    if timeout is not None and elapsed > timeout:
                        raise TaskTimeout(
                            f"attempt took {elapsed:.3f} s > "
                            f"timeout {timeout:.3f} s",
                            elapsed=elapsed, budget=timeout)
                except Exception as exc:  # the boundary: capture, retry
                    last = exc
                    span.set(status="error",
                             error=f"{type(exc).__name__}: {exc}")
                    if backoff is not None and attempts <= retries:
                        if key is not None:
                            delay = backoff.delay(label, attempts, key=key)
                        else:
                            delay = backoff.delay(label, attempts)
                        span.set(backoff=delay)
                        _pause(clock, delay)
                    continue
                span.set(status="ok")
                ok = True
                break
    return _Attempt(ok=ok, value=value if ok else None, attempts=attempts,
                    started=started, finished=clock(),
                    error=None if ok else last, spans=collector.finished(),
                    events=collector.events(),
                    thread_ident=threading.get_ident())


class ExecutionEngine:
    """Runs batches of work items in parallel with caching and retries.

    ``workers=1`` (or ``backend="serial"``) executes inline in
    submission order -- the reference semantics every parallel backend
    must reproduce bit-identically.
    """

    def __init__(self, workers: int = 1, backend: str = "thread", *,
                 cache: ResultCache | None = None, retries: int = 0,
                 timeout: float | None = None,
                 journal: RunJournal | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 faults: Any = None, backoff: Any = None,
                 breaker: Any = None, degrade: bool | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = workers
        self.backend = "serial" if workers == 1 else backend
        self.cache = cache
        self.retries = retries
        self.timeout = timeout
        #: fault injector (duck-typed: ``task_guard(label)``); None = off
        self.faults = faults
        #: retry backoff policy (duck-typed: ``delay(label, attempt)``,
        #: plus a ``key=`` kwarg for content-addressed items)
        self.backoff = backoff
        #: circuit breaker (duck-typed: ``allow``/``block``/``record``)
        self.breaker = breaker
        #: graceful degradation: suite/scaling callers use ``map`` and
        #: record failures instead of aborting on the first error.
        #: Defaults to on whenever a fault injector is attached.
        self.degrade = (faults is not None) if degrade is None else degrade
        #: the span stream every processed task lands on
        self.tracer = tracer if tracer is not None else Tracer()
        #: rank timelines are kept only in a tracer the caller handed
        #: in; the engine's own tracer feeds the journal, which reads
        #: task spans and never events
        self._timelines = tracer is not None
        self.metrics = metrics if metrics is not None else default_registry()
        #: the journal consumes the engine's span stream (it is a
        #: subscriber, not a parallel bookkeeping path)
        self.journal = journal if journal is not None else RunJournal()
        self.tracer.subscribe(self.journal)

    # -- batch execution ----------------------------------------------------

    def map(self, items: Sequence[WorkItem]) -> list[TaskOutcome]:
        """Process a batch; outcomes come back in submission order.

        Cached items are answered immediately; the rest run on the
        configured backend.  Failures are captured per item -- ``map``
        never raises for a task error.
        """
        items = list(items)
        outcomes: list[TaskOutcome | None] = [None] * len(items)
        pending: list[int] = []
        # Circuit-breaker decisions are snapshotted for the whole batch
        # before anything runs and outcomes are recorded after the
        # batch completes (in submission order) -- a mid-batch state
        # update would let thread interleaving change later decisions
        # and break workers=1 vs workers=8 equivalence.
        for i, item in enumerate(items):
            hit = self._lookup(i, item)
            if hit is not None:
                outcomes[i] = hit
            elif self.breaker is not None and \
                    not self.breaker.allow(item.display(i)):
                outcomes[i] = self._skip(i, item)
            else:
                pending.append(i)

        submitted = self.tracer.now()
        if self.backend == "serial":
            for i in pending:
                outcomes[i] = self._finish(i, items[i],
                                           self._attempt_inline(i, items[i]),
                                           submitted)
        else:
            with self._executor() as pool:
                futures = {
                    i: pool.submit(
                        _run_guarded, items[i].fn, items[i].args,
                        items[i].kwargs, self._retries_for(items[i]),
                        self._timeout_for(items[i]), self.tracer.clock,
                        self._guard_for(i, items[i]), self.backoff,
                        items[i].display(i), items[i].key, self._timelines)
                    for i in pending
                }
                for i, future in futures.items():
                    outcomes[i] = self._finish(i, items[i], future.result(),
                                               submitted)

        if self.breaker is not None:
            for i in pending:
                done_outcome = outcomes[i]
                assert done_outcome is not None
                self.breaker.record(done_outcome.label, done_outcome.ok)

        done = [o for o in outcomes if o is not None]
        assert len(done) == len(items)
        return done

    def run(self, items: Sequence[WorkItem]) -> list[Any]:
        """Strict batch execution: values in submission order.

        The first failed item (by submission order) re-raises its
        original exception, or :class:`EngineError` if it was lost in
        transit (process backend edge cases).
        """
        outcomes = self.map(items)
        for outcome in outcomes:
            if not outcome.ok:
                if outcome.exception is not None:
                    raise outcome.exception
                raise EngineError(
                    f"task {outcome.label!r} failed: {outcome.error}")
        return [o.value for o in outcomes]

    # -- helpers ------------------------------------------------------------

    def _executor(self) -> Executor:
        # imported here: it pulls in multiprocessing, which a serial
        # run never uses
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        if self.backend == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-exec")

    def _retries_for(self, item: WorkItem) -> int:
        return self.retries if item.retries is None else item.retries

    def _timeout_for(self, item: WorkItem) -> float | None:
        return self.timeout if item.timeout is None else item.timeout

    def _attempt_inline(self, index: int, item: WorkItem) -> _Attempt:
        return _run_guarded(item.fn, item.args, item.kwargs,
                            self._retries_for(item),
                            self._timeout_for(item), self.tracer.clock,
                            self._guard_for(index, item), self.backoff,
                            item.display(index), item.key, self._timelines)

    def _guard_for(self, index: int,
                   item: WorkItem) -> Callable[[int], None] | None:
        """Fault-injection guard for one item (picklable), or None."""
        if self.faults is None:
            return None
        return self.faults.task_guard(item.display(index))

    def _skip(self, index: int, item: WorkItem) -> TaskOutcome:
        """Short-circuit an item whose label's circuit is open.

        No attempt runs; the outcome (attempts=0) carries a
        ``CircuitOpen`` error, lands in journal/metrics like any other
        failure, and a ``fault`` telemetry event marks the skip.
        """
        label = item.display(index)
        self.breaker.block(label)
        now = self.tracer.now()
        outcome = TaskOutcome(
            index=index, label=label, attempts=0, cache="off",
            started=now, finished=now, key=item.key,
            error=f"CircuitOpen: {label!r} skipped by circuit breaker "
                  f"(state {self.breaker.state(label)})")
        self._emit_task(outcome, spans=(), offset=0.0)
        self.tracer.emit({"type": "fault", "category": "breaker",
                          "target": label, "action": "skip", "at": now})
        self.metrics.counter("engine_tasks_total", status="error",
                             cache="off").inc()
        self.metrics.counter("engine_breaker_skips_total").inc()
        return outcome

    def _lookup(self, index: int, item: WorkItem) -> TaskOutcome | None:
        """Resolve an item from cache, or None when it must execute."""
        if self.cache is None or item.key is None:
            return None
        found, raw = self.cache.get(item.key)
        if not found:
            return None
        value = item.decode(raw) if item.decode is not None else raw
        now = self.tracer.now()
        outcome = TaskOutcome(index=index, label=item.display(index),
                              value=value, attempts=0, cache="hit",
                              started=now, finished=now, key=item.key)
        self._emit_task(outcome, spans=(), offset=0.0)
        self.metrics.counter("engine_tasks_total", status="ok",
                             cache="hit").inc()
        return outcome

    def _finish(self, index: int, item: WorkItem, attempt: _Attempt,
                submitted: float) -> TaskOutcome:
        """Turn a guarded attempt into an outcome; cache, trace, count it."""
        cache_state = "off"
        if self.cache is not None and item.key is not None:
            cache_state = "miss"
            if attempt.ok:
                value = item.encode(attempt.value) \
                    if item.encode is not None else attempt.value
                self.cache.put(item.key, value)
        error = None
        if not attempt.ok:
            exc = attempt.error
            error = f"{type(exc).__name__}: {exc}"
        started, finished = attempt.started, attempt.finished
        offset = 0.0
        if self.backend == "process":
            # Worker perf_counter timestamps live in another process's
            # clock domain; keep the locally measured duration and
            # rebase the interval so it ends at the parent-clock
            # arrival time -- journal wall/busy seconds stay meaningful.
            offset = self.tracer.now() - attempt.finished
            started += offset
            finished += offset
        outcome = TaskOutcome(index=index, label=item.display(index),
                              value=attempt.value, error=error,
                              exception=attempt.error,
                              attempts=attempt.attempts, cache=cache_state,
                              started=started, finished=finished,
                              key=item.key)
        self._emit_task(outcome, spans=attempt.spans, offset=offset,
                        thread_ident=attempt.thread_ident)
        if attempt.events:
            reemit_events(self.tracer, attempt.events)
        status = "ok" if attempt.ok else "error"
        self.metrics.counter("engine_tasks_total", status=status,
                             cache=cache_state).inc()
        if attempt.attempts > 1:
            self.metrics.counter("engine_task_retries_total").inc(
                attempt.attempts - 1)
        self.metrics.histogram("engine_task_seconds").observe(
            outcome.duration)
        if self.backend != "process":
            self.metrics.histogram("engine_queue_wait_seconds").observe(
                max(0.0, attempt.started - submitted))
        return outcome

    def _emit_task(self, outcome: TaskOutcome,
                   spans: Sequence[SpanRecord], offset: float,
                   thread_ident: int | None = None) -> TaskOutcome:
        """Record the task span (+ grafted attempt spans) on the tracer.

        The journal subscribes to the tracer, so this is also what
        journals the task.
        """
        lane = self.tracer.thread_index(thread_ident)
        span_id = self.tracer.add_span(
            f"task:{outcome.label}", outcome.started, outcome.finished,
            thread=lane,
            attrs={"kind": "task", "index": outcome.index,
                   "label": outcome.label,
                   "status": "ok" if outcome.ok else "error",
                   "cache": outcome.cache, "attempts": outcome.attempts,
                   "key": outcome.key, "error": outcome.error})
        if spans:
            self.tracer.graft(list(spans), offset=offset,
                              parent_id=span_id, thread=lane)
        return outcome
