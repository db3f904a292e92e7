"""Hierarchical spans: the suite's structured timing backbone.

A :class:`Tracer` records *spans* -- named, attributed time intervals
forming a tree -- the way the paper's analyses need them: one span per
benchmark, per scaling point, per engine task and attempt.  Downstream, the span stream feeds the run journal, the JSONL
event sink and the Chrome ``trace_event`` exporter (Perfetto).

Design constraints (all load-bearing):

* **thread-safe** -- the execution engine finishes tasks from many
  worker threads; the active-span stack is thread-local, the finished
  list is lock-protected, and thread identities map to small stable
  indices for export;
* **deterministic** -- the clock is injected (:class:`ManualClock` in
  tests), so golden traces are byte-stable;
* **cheap when off** -- :data:`NULL_TRACER` is a shared no-op whose
  ``span()`` returns a reusable null context manager (no allocation on
  the hot path);
* **process-portable** -- :class:`SpanRecord` is a plain picklable
  dataclass, so process-pool workers ship their span batches back to
  the parent, which :meth:`Tracer.graft`\\ s them (rebasing clocks)
  under the task span.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class SpanRecord:
    """One finished span: a named interval in the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_event(self) -> dict[str, Any]:
        """The span's JSONL schema representation (``type: span``)."""
        return {"type": "span", "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "start": self.start, "end": self.end,
                "thread": self.thread, "attrs": dict(self.attrs)}


class _SpanHandle:
    """The object a ``with tracer.span(...)`` block binds; mutate
    attributes mid-span via :meth:`set` (e.g. status after the fact)."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "start", "thread")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, start: float, thread: int,
                 attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.thread = thread
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_SpanHandle":
        self.attrs.update(attrs)
        return self


class _NullHandle:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()
    span_id = 0
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullHandle":
        return self

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects a tree of spans plus out-of-band telemetry events.

    ``clock`` is any zero-argument callable returning monotonic
    seconds; subscribers (duck-typed: optional ``on_span(SpanRecord)``
    and ``on_event(dict)`` methods) observe the stream as it happens,
    which is how the run journal and the JSONL sink attach.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 *, enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        #: keep per-rank vmpi timelines (:func:`~repro.telemetry.export.
        #: emit_vmpi`); an engine clears it on the attempt collectors of
        #: a run whose tracer nobody reads
        self.timelines = True
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 0
        self._spans: list[SpanRecord] = []
        self._events: list[dict[str, Any]] = []
        #: benchmark -> highest ``run`` ordinal among its vmpi events
        self._vmpi_runs: dict[Any, int] = {}
        self._subscribers: list[Any] = []
        self._threads: dict[int, int] = {}

    # -- identity helpers ---------------------------------------------------

    def now(self) -> float:
        return self.clock()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def thread_index(self, ident: int | None = None) -> int:
        """Small, stable index of a thread (export tids).

        First-seen order; ``ident`` defaults to the calling thread.
        """
        if ident is None:
            ident = threading.get_ident()
        with self._lock:
            if ident not in self._threads:
                self._threads[ident] = len(self._threads)
            return self._threads[ident]

    def _stack(self) -> list[_SpanHandle]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span_id(self) -> int | None:
        """Id of this thread's innermost open span (or None)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span as a context manager (nested per thread)."""
        if not self.enabled:
            return _NULL_HANDLE
        return _OpenSpan(self, name, attrs)

    def add_span(self, name: str, start: float, end: float, *,
                 attrs: dict[str, Any] | None = None,
                 parent_id: int | None = None,
                 thread: int | None = None) -> int:
        """Record an already-finished span (retroactive instrumentation).

        The parent defaults to the calling thread's innermost open
        span, so retroactive spans still land in the right subtree.
        """
        if not self.enabled:
            return 0
        if parent_id is None:
            parent_id = self.current_span_id()
        if thread is None:
            thread = self.thread_index()
        record = SpanRecord(span_id=self._new_id(), parent_id=parent_id,
                            name=name, start=start, end=end, thread=thread,
                            attrs=dict(attrs or {}))
        self._finish(record)
        return record.span_id

    def graft(self, records: list[SpanRecord], *, offset: float = 0.0,
              parent_id: int | None = None,
              thread: int | None = None) -> None:
        """Adopt spans recorded by another tracer (e.g. a worker).

        Span ids are remapped into this tracer's id space, times are
        shifted by ``offset`` (clock rebasing across processes), root
        spans re-parent onto ``parent_id``, and -- when ``thread`` is
        given -- all spans move onto that export thread lane.
        """
        if not self.enabled or not records:
            return
        mapping: dict[int, int] = {}
        for rec in records:
            mapping[rec.span_id] = self._new_id()
        for rec in records:
            parent = mapping.get(rec.parent_id) if rec.parent_id else None
            if parent is None:
                parent = parent_id
            self._finish(SpanRecord(
                span_id=mapping[rec.span_id], parent_id=parent,
                name=rec.name, start=rec.start + offset,
                end=rec.end + offset,
                thread=rec.thread if thread is None else thread,
                attrs=dict(rec.attrs)))

    def emit(self, event: dict[str, Any]) -> None:
        """Record an out-of-band telemetry event (vmpi, metrics, ...)."""
        if not self.enabled:
            return
        with self._lock:
            self._events.append(event)
            if event.get("type") == "vmpi":
                runs, bench = self._vmpi_runs, event.get("benchmark")
                runs[bench] = max(runs.get(bench, 0), event.get("run", 1))
            subscribers = list(self._subscribers)
        for sub in subscribers:
            on_event = getattr(sub, "on_event", None)
            if on_event is not None:
                on_event(event)

    def last_vmpi_run(self, benchmark: str) -> int:
        """Highest ``run`` ordinal among the vmpi events emitted for
        ``benchmark`` so far (0 if none) -- kept as events arrive, so
        numbering the next run never rescans the event list."""
        with self._lock:
            return self._vmpi_runs.get(benchmark, 0)

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)
            subscribers = list(self._subscribers)
        for sub in subscribers:
            on_span = getattr(sub, "on_span", None)
            if on_span is not None:
                on_span(record)

    # -- consumption --------------------------------------------------------

    def subscribe(self, sink: Any) -> None:
        """Attach a consumer (``on_span``/``on_event`` duck type)."""
        with self._lock:
            if sink not in self._subscribers:
                self._subscribers.append(sink)

    def finished(self) -> list[SpanRecord]:
        """Finished spans in completion order (a copy)."""
        with self._lock:
            return list(self._spans)

    def events(self) -> list[dict[str, Any]]:
        """Out-of-band events in emission order (a copy)."""
        with self._lock:
            return list(self._events)

    def roots(self) -> list[SpanRecord]:
        ids = {s.span_id for s in self.finished()}
        return [s for s in self.finished()
                if s.parent_id is None or s.parent_id not in ids]

    def children(self, span_id: int) -> list[SpanRecord]:
        return [s for s in self.finished() if s.parent_id == span_id]


def span_rollup(spans: list[SpanRecord]) -> dict[str, dict[str, float]]:
    """Aggregate finished spans by name into per-name totals.

    Returns ``name -> {"count": n, "seconds": total}`` -- the rollup
    the performance-history plane stamps into run records.  Counts are
    a pure function of what ran (deterministic across worker counts);
    the summed seconds inherit whatever clock the tracer used.
    """
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.duration
    return out


class _OpenSpan:
    """Context manager driving one live span on a tracer."""

    __slots__ = ("_tracer", "_handle", "_name", "_attrs")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._handle: _SpanHandle | None = None

    def __enter__(self) -> _SpanHandle:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1].span_id if stack else None
        handle = _SpanHandle(tracer, self._name, tracer._new_id(), parent,
                             tracer.now(), tracer.thread_index(),
                             self._attrs)
        stack.append(handle)
        self._handle = handle
        return handle

    def __exit__(self, exc_type: Any, exc: Any, _tb: Any) -> None:
        tracer = self._tracer
        handle = self._handle
        stack = tracer._stack()
        # Pop exactly this handle; tolerate (and repair) leaked children.
        while stack and stack[-1] is not handle:
            stack.pop()
        if stack:
            stack.pop()
        if exc is not None and "error" not in handle.attrs:
            handle.attrs["error"] = f"{exc_type.__name__}: {exc}"
        tracer._finish(SpanRecord(
            span_id=handle.span_id, parent_id=handle.parent_id,
            name=handle.name, start=handle.start, end=tracer.now(),
            thread=handle.thread, attrs=handle.attrs))


#: The shared disabled tracer: every operation is a cheap no-op.
NULL_TRACER = Tracer(enabled=False)

_GLOBAL: Tracer = NULL_TRACER
_TLS = threading.local()


def current_tracer() -> Tracer:
    """The ambient tracer: thread-local override, else the global one.

    Defaults to :data:`NULL_TRACER`, so instrumented code paths cost
    nothing unless a tracer is installed (CLI ``--trace-out``) or
    scoped in (:func:`use_tracer`, engine workers).
    """
    tracer = getattr(_TLS, "tracer", None)
    return tracer if tracer is not None else _GLOBAL


def install_tracer(tracer: Tracer | None) -> None:
    """Install (or with ``None`` remove) the process-global tracer."""
    global _GLOBAL
    # repro: allow(LCK201): atomic reference swap; readers see old or new
    _GLOBAL = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Thread-locally scope the ambient tracer to ``tracer``."""
    previous = getattr(_TLS, "tracer", None)
    _TLS.tracer = tracer
    try:
        yield tracer
    finally:
        _TLS.tracer = previous


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator: run the function inside a span on the ambient tracer."""
    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with current_tracer().span(label, **attrs):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


class ManualClock:
    """Deterministic injectable clock for tests and golden traces."""

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self._now = float(start)
        #: seconds auto-advanced per reading (0 = fully manual)
        self.tick = float(tick)
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        with self._lock:
            self._now += seconds
            return self._now

    def __call__(self) -> float:
        with self._lock:
            now = self._now
            self._now += self.tick
            return now
