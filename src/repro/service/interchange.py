"""The interchange: routing envelopes from N clients across endpoints.

:class:`BenchmarkService` is the long-running control plane ROADMAP
item 1 asks for, shaped after the funcx interchange: clients submit
packed :class:`~repro.service.envelope.TaskEnvelope` documents, the
interchange queues them **per client**, and a deterministic scheduling
loop leases them out to registered endpoints.  Three invariants the
test tier pins down:

* **fair share** -- dispatch cycles round-robin over the client ids in
  sorted order, one envelope per client per cycle, resuming after the
  last-served client; a client submitting 100 tasks cannot starve a
  client submitting 1.
* **admission control** -- each client queue is bounded by
  ``max_backlog``; an over-budget submission resolves *immediately* to
  an explicit ``rejected`` result envelope (recorded in the store like
  any other outcome).  Nothing is ever silently dropped.
* **no lost, no duplicated envelopes** -- dispatch does not consult
  the fault plan (the interchange cannot see crashes, only missed
  heartbeats), so envelopes do land on endpoints that are already
  dead.  When the endpoint's lease lapses after
  ``heartbeat_threshold x heartbeat_period`` virtual seconds, its
  in-flight envelopes are requeued at the *front* of their owners'
  queues in original order, and
  :meth:`~repro.service.client.ServiceFuture.resolve` raises on any
  double completion.

Everything runs on the injected clock (a
:class:`~repro.telemetry.spans.ManualClock` by default), so the whole
schedule -- including lease expiry and crash recovery -- is a pure
function of the submissions, the endpoint layout and the fault plan.
:attr:`BenchmarkService.dispatch_log` records every scheduling
decision and is byte-reproducible across reruns.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from typing import Any

from ..exec.engine import _pause
from ..exec.jsonl import encode_line
from ..faults.plan import FaultPlan
from ..telemetry.metrics import MetricsRegistry, default_registry
from ..telemetry.spans import ManualClock, Tracer, current_tracer
from .client import ServiceError, ServiceFuture
from .endpoint import Capabilities, LeaseTable
from .envelope import ResultEnvelope, TaskEnvelope
from .store import ResultStore


class _Slot:
    """Registration-time state of one endpoint."""

    def __init__(self, endpoint: Any, caps: Capabilities, index: int):
        self.endpoint = endpoint
        self.caps = caps
        self.index = index
        self.inflight: list[TaskEnvelope] = []
        #: lease lapsed; no dispatch until re-registered
        self.lost = False
        #: inside a fault-plan crash window (no beats, no execution)
        self.down = False

    @property
    def endpoint_id(self) -> str:
        return self.endpoint.endpoint_id

    def free(self) -> int:
        return self.caps.workers - len(self.inflight)


class BenchmarkService:
    """Interchange + lease table + result store behind one facade.

    ``faults`` maps :class:`~repro.faults.plan.NodeFault` entries onto
    endpoints by *registration index* (node 0 = first registered
    endpoint): during ``[at, at + duration)`` the endpoint neither
    beats nor executes, which is exactly how a worker-pool crash looks
    from the interchange.  A finite window restores the endpoint (and
    its lease, if it was declared lost) when the window closes.

    The service is single-threaded at heart -- :meth:`pump` makes one
    deterministic scheduling round, :meth:`tick` executes leased work
    and heartbeats -- with one lock making :meth:`submit` /
    :meth:`cancel` safe to call from concurrent client threads.
    """

    def __init__(self, *, clock: Any = None, heartbeat_period: float = 5.0,
                 heartbeat_threshold: int = 3, max_backlog: int = 64,
                 store: ResultStore | None = None,
                 faults: FaultPlan | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.clock = clock if clock is not None else ManualClock()
        self.leases = LeaseTable(self.clock, period=heartbeat_period,
                                 threshold=heartbeat_threshold)
        self.max_backlog = max_backlog
        self.store = store if store is not None else ResultStore()
        self.faults = faults if faults is not None else FaultPlan()
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else default_registry()
        self._slots: dict[str, _Slot] = {}
        self._queues: dict[str, deque[TaskEnvelope]] = {}
        self._futures: dict[str, ServiceFuture] = {}
        self._round = 0
        self._last_served: str | None = None
        self.dispatch_log: list[dict[str, Any]] = []
        self._lock = threading.RLock()

    # -- observability -------------------------------------------------------

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else current_tracer()

    def _note(self, event: str, at: float, **fields: Any) -> None:
        entry = {"round": self._round, "at": at, "event": event}
        entry.update(fields)
        self.dispatch_log.append(entry)
        target = str(fields.get("task") or fields.get("endpoint") or "")
        self._tracer().emit({"type": "service", "action": event,
                             "target": target, "at": at})

    def log_json(self) -> str:
        """The dispatch log as canonical JSON (replay comparisons)."""
        return encode_line(self.dispatch_log)

    def _gauge_backlog(self) -> None:
        queued = sum(len(q) for q in self._queues.values())
        self.metrics.gauge("service_backlog").set(queued)

    # -- endpoints -----------------------------------------------------------

    def register_endpoint(self, endpoint: Any) -> str:
        """Register an endpoint (or re-register one declared lost)."""
        with self._lock:
            eid = endpoint.endpoint_id
            slot = self._slots.get(eid)
            if slot is not None and not slot.lost:
                raise ValueError(f"endpoint {eid!r} is already registered")
            if slot is None:
                slot = _Slot(endpoint, endpoint.capabilities(),
                             len(self._slots))
                self._slots[eid] = slot
            slot.lost = False
            self.leases.register(eid)
            self._note("register", self.clock(), endpoint=eid,
                       capabilities=slot.caps.to_dict())
            return eid

    def endpoints(self) -> dict[str, dict[str, Any]]:
        """Registered endpoints and their advertised capabilities."""
        with self._lock:
            return {eid: {"capabilities": slot.caps.to_dict(),
                          "lost": slot.lost, "index": slot.index,
                          "inflight": len(slot.inflight)}
                    for eid, slot in self._slots.items()}

    def _crash_state(self, slot: _Slot, now: float) -> bool:
        for nf in self.faults.nodes:
            if nf.node != slot.index:
                continue
            if nf.at <= now and (nf.duration is None
                                 or now < nf.at + nf.duration):
                return True
        return False

    def _restore_at(self, slot: _Slot, now: float) -> float | None:
        """End of the crash window covering ``now`` (None = never)."""
        ends = [nf.at + nf.duration for nf in self.faults.nodes
                if nf.node == slot.index and nf.duration is not None
                and nf.at <= now < nf.at + nf.duration]
        return max(ends) if ends else None

    # -- submission ----------------------------------------------------------

    def submit(self, envelope: TaskEnvelope) -> ServiceFuture:
        """Admit one task envelope; returns its future.

        Content-addressed idempotency: resubmitting an envelope whose
        task is pending or already succeeded returns the existing
        future; only terminally ``rejected`` / ``cancelled`` tasks may
        be resubmitted as fresh work.
        """
        with self._lock:
            task_id = envelope.task_id
            existing = self._futures.get(task_id)
            if existing is not None and existing.status not in (
                    "rejected", "cancelled"):
                return existing
            queue = self._queues.setdefault(envelope.client, deque())
            now = self.clock()
            if len(queue) >= self.max_backlog:
                rejected = ResultEnvelope(
                    task_id=task_id, client=envelope.client,
                    benchmark=envelope.benchmark, key=envelope.key,
                    status="rejected",
                    error=(f"backlog full: client {envelope.client!r} has "
                           f"{len(queue)} queued tasks (cap "
                           f"{self.max_backlog}); retry after the service "
                           f"drains"))
                future = ServiceFuture(envelope, self)
                future.resolve(rejected)
                self._futures[task_id] = future
                self.store.append(rejected)
                self._note("reject", now, task=task_id,
                           client=envelope.client)
                self.metrics.counter("service_rejected_total").inc()
                return future
            future = ServiceFuture(envelope, self)
            self._futures[task_id] = future
            queue.append(envelope)
            self._note("submit", now, task=task_id, client=envelope.client)
            self.metrics.counter("service_submitted_total").inc()
            self._gauge_backlog()
            return future

    def cancel(self, task_id: str) -> bool:
        """Cancel a still-queued task (False once leased out or done)."""
        with self._lock:
            for client, queue in self._queues.items():
                for env in queue:
                    if env.task_id != task_id:
                        continue
                    queue.remove(env)
                    cancelled = ResultEnvelope(
                        task_id=task_id, client=client,
                        benchmark=env.benchmark, key=env.key,
                        status="cancelled",
                        error="cancelled before dispatch")
                    self.store.append(cancelled)
                    self._futures[task_id].resolve(cancelled)
                    self._note("cancel", self.clock(), task=task_id,
                               client=client)
                    self.metrics.counter("service_cancelled_total").inc()
                    self._gauge_backlog()
                    return True
            return False

    # -- the scheduling loop -------------------------------------------------

    def pump(self) -> int:
        """One deterministic scheduling round.

        Order: fault-plan crash/restore transitions, lease expiry (lost
        endpoints requeue their in-flight envelopes), then fair-share
        dispatch.  Returns the number of state changes made.
        """
        with self._lock:
            self._round += 1
            now = self.clock()
            changed = 0
            for slot in self._slots.values():
                down = self._crash_state(slot, now)
                if down and not slot.down:
                    slot.down = True
                    changed += 1
                    self._note("crash", now, endpoint=slot.endpoint_id)
                elif not down and slot.down:
                    slot.down = False
                    changed += 1
                    if slot.lost:
                        slot.lost = False
                        self.leases.register(slot.endpoint_id)
                    self._note("restore", now, endpoint=slot.endpoint_id)
            for eid in self.leases.expired():
                slot = self._slots[eid]
                slot.lost = True
                self.leases.drop(eid)
                changed += 1
                self._note("lost", now, endpoint=eid,
                           inflight=[env.task_id for env in slot.inflight])
                for env in reversed(slot.inflight):
                    self._queues[env.client].appendleft(env)
                    self._note("requeue", now, task=env.task_id,
                               client=env.client, endpoint=eid)
                    self.metrics.counter("service_requeued_total").inc()
                slot.inflight.clear()
                self._gauge_backlog()
            changed += self._dispatch(now)
            return changed

    def _pick(self, envelope: TaskEnvelope) -> _Slot | None:
        """Least-loaded live endpoint accepting the envelope (ties go
        to registration order); crash state is invisible on purpose."""
        best: _Slot | None = None
        for slot in self._slots.values():
            if slot.lost or slot.free() < 1:
                continue
            if not slot.caps.accepts(envelope):
                continue
            if best is None or slot.free() > best.free():
                best = slot
        return best

    def _dispatch(self, now: float) -> int:
        moved = 0
        while True:
            order = [c for c in sorted(self._queues) if self._queues[c]]
            if self._last_served is not None:
                idx = bisect_right(order, self._last_served)
                order = order[idx:] + order[:idx]
            cycle = 0
            for client in order:
                queue = self._queues[client]
                if not queue:
                    continue
                slot = self._pick(queue[0])
                if slot is None:
                    continue
                env = queue.popleft()
                slot.inflight.append(env)
                self._last_served = client
                self._note("dispatch", now, task=env.task_id, client=client,
                           endpoint=slot.endpoint_id)
                cycle += 1
            moved += cycle
            if not cycle:
                break
        if moved:
            self._gauge_backlog()
        return moved

    def tick(self) -> int:
        """Execute leased envelopes and heartbeat live endpoints.

        Endpoints inside a crash window neither beat nor execute --
        their leases age toward expiry while their in-flight envelopes
        wait to be declared lost.  Returns completed-envelope count.
        """
        with self._lock:
            done = 0
            for slot in self._slots.values():
                if slot.lost or slot.down:
                    continue
                self.leases.beat(slot.endpoint_id)
                if not slot.inflight:
                    continue
                batch, slot.inflight = slot.inflight, []
                for result in slot.endpoint.execute(batch):
                    self._complete(result)
                    done += 1
            return done

    def _complete(self, result: ResultEnvelope) -> None:
        self.store.append(result)
        self._futures[result.task_id].resolve(result)
        self._note("complete", self.clock(), task=result.task_id,
                   endpoint=result.endpoint, status=result.status)
        self.metrics.counter("service_completed_total",
                             status=result.status).inc()

    def step(self) -> int:
        """One pump + tick round; returns total state changes."""
        return self.pump() + self.tick()

    # -- draining ------------------------------------------------------------

    def pending(self) -> list[str]:
        """Task ids whose futures are unresolved, submission order."""
        with self._lock:
            return [tid for tid, fut in self._futures.items()
                    if not fut.done()]

    def _can_wait(self, now: float) -> bool:
        """Whether advancing the clock can still unblock the service."""
        for slot in self._slots.values():
            if slot.down and slot.inflight:
                return True        # lease expiry will requeue the work
            if (slot.down or slot.lost) and \
                    self._restore_at(slot, now) is not None:
                return True        # a crash window is going to close
        return False

    def drain(self, max_rounds: int = 100000) -> None:
        """Run the scheduling loop until every future is resolved.

        When a round makes no progress, the clock advances by one
        heartbeat period *iff* waiting can help (a dead endpoint's
        lease aging out, a crash window closing); otherwise the stuck
        tasks are reported in a :class:`~repro.service.client.ServiceError`
        -- an explicit failure, never a silent hang.
        """
        for _ in range(max_rounds):
            with self._lock:
                if not self.pending():
                    return
                if self.step():
                    continue
                now = self.clock()
                if not self._can_wait(now):
                    stuck = self.pending()
                    raise ServiceError(
                        f"service stalled with {len(stuck)} unresolved "
                        f"task(s) {stuck[:4]}...: no live endpoint "
                        f"accepts them and no lease or crash window is "
                        f"pending -- register a capable endpoint or "
                        f"cancel the tasks")
            _pause(self.clock, self.leases.period)
        raise ServiceError(f"service did not converge within "
                           f"{max_rounds} scheduling rounds")
