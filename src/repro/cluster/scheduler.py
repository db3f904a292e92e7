"""Slurm-like batch scheduler for the simulated system.

JUBE resolves a benchmark's steps into batch jobs and submits them; the
paper's replicability story depends on that layer behaving predictably.
This module provides a deterministic event-driven scheduler over the
simulated machine: jobs request node counts and walltimes, are placed
FIFO with conservative backfill, and receive *contiguous, cell-aligned*
node ranges when possible.  Only ``jubench chaos`` schedules here; ``fig2``,
``fig3`` and ``suite`` place ranks by ``vmpi.machine``'s block placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..vmpi.heap import EventHeap
from .hardware import SystemSpec


class JobState(Enum):
    """Lifecycle of a batch job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """A batch job: resource request plus an optional payload callable.

    ``run`` receives the allocated node list and must return the job's
    result (stored on ``result``); raising marks the job FAILED.
    """

    name: str
    nodes: int
    walltime: float
    run: Callable[[list[int]], object] | None = None
    submit_time: float = 0.0
    job_id: int = -1
    state: JobState = JobState.PENDING
    start_time: float | None = None
    end_time: float | None = None
    allocated: list[int] = field(default_factory=list)
    result: object = None
    error: str | None = None
    #: times this job was kicked back to PENDING by a node crash
    requeues: int = 0
    #: straggler slowdown factor of the current/last allocation
    slowdown: float = 1.0

    @property
    def wait_time(self) -> float | None:
        """Queue wait, once started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


class Scheduler:
    """FIFO + conservative-backfill scheduler over a node pool.

    The virtual clock advances only through job submissions/completions
    (and, under fault injection, through plan fault events), so results
    are exactly reproducible.  Placement prefers the lowest contiguous
    node range whose start is aligned to a cell boundary when the
    request spans one or more full cells.

    ``faults`` (duck-typed: ``cluster_timeline()`` yielding sorted
    ``(time, action, node, factor)`` tuples, optional ``observe``
    telemetry callback -- a :class:`~repro.faults.FaultInjector`)
    injects node crashes (running jobs on dead nodes requeue, the node
    leaves the free pool), restores (the node rejoins) and straggler
    windows (allocations including a slowed node run ``factor``
    x slower).
    """

    def __init__(self, system: SystemSpec, faults: object = None):
        self.system = system
        self.now = 0.0
        self._free = set(range(system.nodes))
        self._queue: list[Job] = []
        #: completion events keyed (end_time, job_id) -- job_id is the
        #: semantic tiebreak, so equal-time completions finish in
        #: submission order
        self._running = EventHeap()
        self._ids = itertools.count(1)
        self.history: list[Job] = []
        self._faults = faults
        self._events: list[tuple[float, str, int, float]] = \
            list(faults.cluster_timeline()) if faults is not None else []
        self._event_pos = 0
        self._dead: set[int] = set()
        self._slow: dict[int, float] = {}
        #: node-seconds consumed by partial runs that never reached a
        #: completion (crash requeues) -- kept for utilization accounting
        self._consumed = 0.0

    # -- public API ----------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Submit a job at the current virtual time."""
        if job.nodes < 1:
            raise ValueError("job must request at least one node")
        if job.nodes > self.system.nodes:
            raise ValueError(
                f"job {job.name!r} requests {job.nodes} nodes, system has "
                f"{self.system.nodes}")
        job.job_id = next(self._ids)
        job.submit_time = self.now
        job.state = JobState.PENDING
        self._queue.append(job)
        self.history.append(job)
        self._schedule()
        return job

    def cancel(self, job: Job) -> None:
        """Cancel a pending or running job.

        A running job is stopped at the current virtual time: its nodes
        return to the free pool (the partial run still counts toward
        utilization via ``end_time = now``) and waiting jobs get a
        scheduling pass.
        """
        if job.state is JobState.PENDING:
            self._queue.remove(job)
            job.state = JobState.CANCELLED
        elif job.state is JobState.RUNNING:
            self._running.remove_if(lambda j: j is job)
            self._free.update(n for n in job.allocated
                              if n not in self._dead)
            job.state = JobState.CANCELLED
            job.end_time = self.now
            self._schedule()

    def step(self) -> bool:
        """Advance to the next event; False when nothing can happen.

        The next event is either a job completion or (under fault
        injection) the next plan fault, whichever comes first on the
        virtual clock; a tie goes to the completion.  Fault events are
        only consumed while there is work (queued or running) they
        could affect.
        """
        next_end = self._running.peek_time() if self._running else None
        fault = self._events[self._event_pos] \
            if self._event_pos < len(self._events) else None
        if fault is not None and (self._queue or self._running) and \
                (next_end is None or fault[0] < next_end):
            self._event_pos += 1
            self._apply_fault(*fault)
            self._schedule()
            return True
        if next_end is None:
            return False
        end, _, job = self._running.pop_entry()
        self.now = max(self.now, end)
        self._finish(job)
        self._schedule()
        return True

    def drain(self) -> None:
        """Run the simulation until queue and machine are empty."""
        while self.step():
            pass
        if self._queue:
            # _schedule is greedy, so a non-empty queue with an idle machine
            # means some request can never be satisfied.
            stuck = ", ".join(j.name for j in self._queue)
            raise RuntimeError(f"jobs can never be scheduled: {stuck}")

    @property
    def free_nodes(self) -> int:
        """Currently idle node count."""
        return len(self._free)

    @property
    def dead_nodes(self) -> int:
        """Nodes currently crashed out of the pool."""
        return len(self._dead)

    @property
    def utilization(self) -> float:
        """Node-seconds used / available over the elapsed virtual time.

        Partial runs cut short by a node crash still count as used
        node-seconds (they occupied the machine); the denominator keeps
        dead nodes as capacity -- a crash lowers achievable
        utilization, it does not redefine the machine.
        """
        if self.now <= 0:
            return 0.0
        used = self._consumed + \
            sum((j.end_time - j.start_time) * j.nodes
                for j in self.history
                if j.end_time is not None and j.start_time is not None)
        return used / (self.now * self.system.nodes)

    # -- fault injection ------------------------------------------------------

    def _apply_fault(self, at: float, action: str, node: int,
                     factor: float) -> None:
        """Apply one plan fault event at virtual time ``at``."""
        self.now = max(self.now, at)
        if action == "crash":
            self._crash_node(node)
        elif action == "restore":
            self._dead.discard(node)
            if 0 <= node < self.system.nodes:
                self._free.add(node)
        elif action == "slow":
            self._slow[node] = factor
        elif action == "unslow":
            self._slow.pop(node, None)
        else:
            raise ValueError(f"unknown fault action {action!r}")
        observe = getattr(self._faults, "observe", None)
        if observe is not None:
            observe(action, node, self.now)

    def _crash_node(self, node: int) -> None:
        """Take a node out of the pool; requeue jobs running on it."""
        self._dead.add(node)
        self._free.discard(node)
        victims = [job for _, _, job in self._running
                   if node in job.allocated]
        if victims:
            alive = {id(j) for j in victims}
            self._running.remove_if(lambda j: id(j) in alive)
            for job in sorted(victims, key=lambda j: j.job_id):
                self._requeue(job)

    def _requeue(self, job: Job) -> None:
        """Crash recovery: put a running job back at its queue position.

        The partial run's node-seconds are credited to the utilization
        accumulator, surviving nodes return to the free pool, and the
        job resets to PENDING (result/error/timing cleared,
        ``requeues`` incremented).  Requeued jobs re-enter the queue in
        job-id order, keeping the FIFO discipline deterministic.
        """
        if job.start_time is not None:
            self._consumed += (self.now - job.start_time) * job.nodes
        self._free.update(n for n in job.allocated if n not in self._dead)
        job.allocated = []
        job.state = JobState.PENDING
        job.start_time = None
        job.end_time = None
        job.result = None
        job.error = None
        job.slowdown = 1.0
        job.requeues += 1
        self._queue.append(job)
        self._queue.sort(key=lambda j: j.job_id)

    # -- internals ------------------------------------------------------------

    def _allocate(self, count: int) -> list[int] | None:
        """Lowest contiguous range, cell-aligned for cell-sized requests."""
        if count > len(self._free):
            return None
        free = sorted(self._free)
        npc = self.system.nodes_per_cell
        starts = [s for s in free] if count < npc else \
                 [s for s in free if s % npc == 0]
        free_set = self._free
        for start in starts:
            block = range(start, start + count)
            if block.stop <= self.system.nodes and all(n in free_set for n in block):
                return list(block)
        # Fall back to any (possibly scattered) nodes.
        return free[:count]

    def _schedule(self) -> None:
        """FIFO with conservative backfill: later jobs may start early only
        if they fit in the currently free nodes (they can never delay the
        queue head, because running jobs are not preempted)."""
        progressed = True
        while progressed:
            progressed = False
            for job in list(self._queue):
                alloc = self._allocate(job.nodes)
                if alloc is None:
                    continue  # head blocked -> try to backfill behind it
                self._start(job, alloc)
                progressed = True
                break

    def _start(self, job: Job, alloc: list[int]) -> None:
        self._queue.remove(job)
        self._free.difference_update(alloc)
        job.allocated = alloc
        job.state = JobState.RUNNING
        job.start_time = self.now
        # Straggler windows stretch the payload's virtual duration by
        # the slowest node of the allocation (capped at walltime; the
        # overrun check in _finish applies the same factor).
        job.slowdown = max((self._slow.get(n, 1.0) for n in alloc),
                           default=1.0)
        duration = job.walltime
        if job.run is not None:
            try:
                job.result = job.run(alloc)
            except Exception as exc:  # payload decides job success
                job.error = f"{type(exc).__name__}: {exc}"
            # Payloads may return an object with a virtual duration.
            dur = getattr(job.result, "seconds", None)
            if isinstance(dur, (int, float)) and dur >= 0:
                duration = min(float(dur) * job.slowdown, job.walltime)
        job.end_time = self.now + duration
        self._running.push(job.end_time, job, tiebreak=job.job_id)

    def _finish(self, job: Job) -> None:
        self._free.update(n for n in job.allocated if n not in self._dead)
        if job.error is not None:
            job.state = JobState.FAILED
        elif job.end_time is not None and job.run is not None and \
                getattr(job.result, "seconds", 0.0) and \
                float(getattr(job.result, "seconds")) * job.slowdown > \
                job.walltime:
            job.state = JobState.FAILED
            job.error = "walltime exceeded"
        else:
            job.state = JobState.COMPLETED
