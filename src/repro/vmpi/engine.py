"""Deterministic virtual-MPI execution engine (discrete-event core).

Rank programs (generators yielding :mod:`~repro.vmpi.ops` descriptors)
are co-scheduled in-process.  Real payloads are actually moved and
reduced -- so distributed algorithms can be validated -- while every
operation advances a per-rank *virtual clock* using the machine model,
so the same program produces large-machine timing from a laptop.

There is one core, :class:`VmpiEngine`, and nothing selects another.
It schedules and prices the way a discrete-event simulator does:

* **event heap** -- unblocked ranks are resumed from one global
  :class:`~repro.vmpi.heap.EventHeap` keyed by their virtual clock, so
  execution sweeps virtual time in causal order;
* **cost caches** -- point-to-point alpha-beta parameters are cached
  per node pair, roofline compute times per ``(device, kernel)``,
  collective costs per ``(comm, kind, bytes)``: the machine model is
  consulted once per distinct question instead of once per op;
* **job programs** -- a job program (:mod:`repro.vmpi.job`) builds
  each column once for all ranks, as an op or as arrays; the columns
  run over NumPy arrays indexed by global rank (:mod:`repro.vmpi.sweep`)
  and no rank is stepped.

The column path lowers onto the *per-request machinery* (FIFO channels,
:class:`~repro.vmpi.ops.Request`, wait groups) whenever it cannot
apply, and that machinery alone defines the semantics; a rank
program's ops, a fused :class:`~repro.vmpi.ops.Exchange` included, run
on it directly.  The test-side reference scheduler
(``tests/vmpi_reference.py``) runs every op through it naively, and
the differential suites assert byte-identical values,
clocks, traces, Chrome exports and error text against it: every value-
and float-producing path is shared and only *host-side scheduling*
differs, which virtual time never observes (the heap invariants are
stated in DESIGN.md section 10).

Semantics (documented divergences from real MPI):

* Point-to-point uses rendezvous timing: a transfer starts when both
  sides have posted and costs ``alpha + n/beta`` from the network model.
  Nonblocking ops (``Isend``/``Irecv`` + ``Wait``) therefore model
  compute/communication overlap exactly the way the applications exploit
  it (Arbor hides its spike exchange behind integration, Sec. IV-A2a).
* Sends at or below ``eager_limit`` follow MPI's eager protocol: they
  complete locally after the injection overhead, independent of the
  receiver.
* Matching is schedule-independent: per-``(comm, src, dst, tag)`` FIFO
  queues for p2p, one round in flight per communicator for collectives,
  and per-``(comm, tag)`` round counters for fused exchanges (an
  :class:`~repro.vmpi.ops.Exchange` matches only other exchanges of
  the same round, like MPI neighborhood collectives).
* Collectives are synchronising: completion is ``max(post times) +
  model cost``; all ranks leave with the same clock.
* A rank may yield a *tuple* of ops (a batch): the ops run in order
  and the rank resumes once with the list of their results.
* Scheduling is deterministic, so runs are exactly reproducible -- a
  suite requirement (replicability, Sec. II-A).
"""

from __future__ import annotations

import inspect
from collections import defaultdict, deque
from dataclasses import dataclass
from heapq import heappop
from typing import Any, Callable, Iterator

import numpy as np

from ..cluster.hardware import juwels_booster
from .collectives import (
    CollectiveMismatchError,
    DeadlockError,
    RankFailedError,
    VmpiError,
    collective_arg_bytes,
    collective_cost,
    collective_results,
    partial_mismatch,
    validate_collective,
)
from .comm import Comm
from .heap import EventHeap
from .machine import Machine
from .ops import (
    Collective,
    Compute,
    Elapse,
    Exchange,
    Irecv,
    Isend,
    Op,
    Recv,
    Request,
    Send,
    Sendrecv,
    Wait,
    Waitall,
    nbytes_of,
)
from .rounds import CollRound, XchgPlan, build_plan, exchange_bytes
from .job import World, job_rank
from .sweep import SweepPlan, plan_columns
from .trace import RankTrace, SpmdResult

__all__ = [
    "CollectiveMismatchError",
    "DeadlockError",
    "RankFailedError",
    "VmpiEngine",
    "VmpiError",
    "run_spmd",
]


@dataclass
class _WaitGroup:
    """A rank blocked until a set of requests completes."""

    rank: int
    requests: tuple[Request, ...]
    single: bool  # resume with one result instead of a list
    sendrecv: bool = False  # resume with the received payload only
    exchange: Exchange | None = None  # the fused exchange posted


def _describe_request(req: Request) -> str:
    what = "send to" if req.is_send else "recv from"
    return f"{what} rank {req.peer} (comm {req.comm_id}, tag {req.tag})"


def _lowered(r: int, ops: tuple) -> Iterator[Op]:
    """A tuple batch on the per-rank path: rank ``r``'s program, for the
    length of the batch, is "yield each op, return the results"."""
    results = []
    for op in ops:
        if type(op) is tuple:
            raise VmpiError(f"rank {r} yielded a nested op batch")
        results.append((yield op))
    return results


class VmpiEngine:
    """Runs one SPMD program over a :class:`~repro.vmpi.machine.Machine`.

    ``eager_limit`` mirrors MPI's eager protocol: sends at or below it
    complete locally (buffered), larger ones rendezvous -- so legal
    small out-of-order tagged sends and self-messages do not deadlock.
    """

    EAGER_LIMIT = 64 * 1024  # bytes

    def __init__(self, machine: Machine, eager_limit: int | None = None):
        self.machine = machine
        self.eager_limit = self.EAGER_LIMIT if eager_limit is None else eager_limit
        n = machine.nranks
        self.clocks = [0.0] * n
        self.traces = [RankTrace() for _ in range(n)]
        self._gens: list[Iterator[Op]] = []
        self._resume: list[Any] = [None] * n
        self._finished = [False] * n
        self._values: list[Any] = [None] * n
        self._heap = EventHeap()
        self._blocked: dict[int, Any] = {}       # rank -> blocked marker
        self._sends: dict[tuple, deque[Request]] = defaultdict(deque)
        self._recvs: dict[tuple, deque[Request]] = defaultdict(deque)
        self._wait_groups: dict[Request, _WaitGroup] = {}
        self._comms: dict[int, tuple[int, ...]] = {0: tuple(range(n))}
        self._next_comm_id = 1
        #: rank -> its program, while ``_gens`` holds a lowered batch
        self._outer: dict[int, Iterator[Op]] = {}
        self._rid = 0
        self._node = machine.nodes_of_rank
        self._devkey = [id(d) for d in machine.devices]
        self._p2p_cache: dict[tuple[int, int], tuple[float, float]] = {}
        self._compute_cache: dict[tuple, float] = {}
        self._cost_cache: dict[tuple, float] = {}
        self._node_sets: dict[int, tuple[int, ...]] = {}
        #: comm -> the collective round in flight
        self._cst: dict[int, CollRound] = {}
        #: (comm, tag, rank) -> the rank's next exchange round
        self._xseq: dict[tuple[int, int, int], int] = defaultdict(int)

    # -- public --------------------------------------------------------------

    def run(self, fn: Callable, *,
            args: tuple = (), kwargs: dict | None = None,
            rank_kwargs: list[dict] | None = None,
            tracer: Any = None) -> SpmdResult:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank: a
        generator function is a rank program, run once per rank, any
        other a job program (:mod:`repro.vmpi.job`), called once with the
        :class:`~repro.vmpi.job.World`.  ``rank_kwargs`` supplies per-rank
        keyword overrides; ``tracer`` (a :class:`~repro.telemetry.Tracer`)
        wraps the run in a ``vmpi.run`` span."""
        if tracer is not None and getattr(tracer, "enabled", False):
            with tracer.span("vmpi.run", nranks=self.machine.nranks):
                return self._run(fn, args, kwargs, rank_kwargs)
        return self._run(fn, args, kwargs, rank_kwargs)

    def _run(self, fn: Callable, args: tuple, kwargs: dict | None,
             rank_kwargs: list[dict] | None) -> SpmdResult:
        kwargs = kwargs or {}
        if not inspect.isgeneratorfunction(fn):
            if rank_kwargs is not None:
                raise TypeError(f"job program {fn.__name__!r} takes no "
                                f"rank_kwargs")
            return self._run_job(fn, args, kwargs)
        job: dict[tuple, Any] = {}      # the world communicators' memo
        for r in range(self.machine.nranks):
            kw = dict(kwargs)
            if rank_kwargs is not None:
                kw.update(rank_kwargs[r])
            comm = Comm(comm_id=0, rank=r, members=self._comms[0])
            comm._job = job
            self._gens.append(fn(comm, *args, **kw))
        return self._drive()

    def _drive(self) -> SpmdResult:
        """Run the rank programs in ``_gens`` to completion."""
        for r in range(self.machine.nranks):
            self._wake(r)
        self._loop()
        if not all(self._finished):
            self._raise_stuck()
        return SpmdResult(values=self._values, clocks=self.clocks,
                          traces=self.traces)

    def _run_job(self, fn: Callable, args: tuple, kwargs: dict) -> SpmdResult:
        """A job program (:mod:`repro.vmpi.job`): called once, its
        phases planned as columns, the step plan run ``steps`` times,
        each rank's trace and value written once at the end."""
        out = fn(World(self), *args, **kwargs)
        try:
            (prologue, step, steps, epilogue), value = out
        except (TypeError, ValueError):
            raise TypeError(
                f"job program {fn.__name__!r} must return ((prologue, step, "
                f"steps, epilogue), value)") from None
        slots: dict[tuple[str, str], int] = {}
        live = step if steps > 0 else ()    # a step never run books nothing
        plans = self._job_plans((prologue, live, epilogue), slots)
        if plans is None:       # the per-rank path runs (and reports) it
            self._gens = [job_rank(r, prologue, step, steps, epilogue, value)
                          for r in range(self.machine.nranks)]
            return self._drive()
        self._columns([(p, k) for p, k in zip(plans, (1, steps, 1))
                       if p.columns], list(slots))
        self._values = [value] * self.machine.nranks
        return SpmdResult(values=self._values, clocks=self.clocks,
                          traces=self.traces)

    def _job_plans(self, phases: tuple, slots: dict) -> list | None:
        """One column plan per phase (slots shared), or None."""
        plans = [plan_columns(self, list(cols), slots) for cols in phases]
        return None if any(p is None for p in plans) else plans

    # -- scheduling ------------------------------------------------------------

    def _wake(self, r: int) -> None:
        """Make rank ``r`` runnable (it unblocked at ``self.clocks[r]``)."""
        self._heap.push(self.clocks[r], r)

    def _loop(self) -> None:
        """Drain runnable ranks until nothing can proceed."""
        # Pops straight off the EventHeap's underlying list: this loop
        # runs once per rank resumption, so the method hop matters.
        heap = self._heap._heap
        step = self._step_rank
        while heap:
            step(heappop(heap)[2])

    def _columns(self, runs: list[tuple[SweepPlan, int]],
                 slots: list[tuple[str, str]]) -> None:
        """Run each ``(plan, times)`` in turn over arrays gathered from
        the clocks and traces, and write them back once."""
        traces = self.traces
        buckets = {"compute": [t.compute for t in traces],
                   "comm": [t.comm for t in traces]}
        tables = [buckets[bucket] for bucket, _ in slots]
        acc = [np.array([d.get(label, 0.0) for d in dicts])
               for dicts, (_, label) in zip(tables, slots)]
        clk = np.array(self.clocks)
        sent = np.array([t.bytes_sent for t in traces])
        nops = 0
        for plan, times in runs:
            for _ in range(times):
                plan.run(clk, acc, sent)
            nops += times * len(plan.columns)
        # Slots are in first-touch order, so a label new to a rank lands
        # in its trace dict where the per-rank path would have put it.
        for dicts, (_, label), values in zip(tables, slots, acc):
            for d, v in zip(dicts, values.tolist()):
                d[label] = v
        self.clocks[:] = clk.tolist()
        for trace, nbytes in zip(traces, sent.tolist()):
            trace.bytes_sent = nbytes
            trace.ops += nops

    # -- cached cost queries ---------------------------------------------------
    # First use goes through the machine model, later uses replay the
    # stored value bit for bit.

    def _p2p_params(self, key: tuple[int, int]) -> tuple[float, float]:
        """Alpha-beta pair of a node pair (one model query per pair)."""
        params = self._p2p_cache.get(key)
        if params is None:
            params = self.machine.network.p2p_params(
                key[0], key[1], self.machine.job_nodes)
            self._p2p_cache[key] = params
        return params

    def _p2p_seconds(self, src: int, dst: int, nbytes: float) -> float:
        nodes = self._node
        key = (nodes[src], nodes[dst])
        params = self._p2p_params(key)
        if key[0] == key[1] and nbytes == 0:
            return 0.0
        return params[0] + nbytes / params[1]

    def _price(self, r: int, op: Compute) -> float:
        """Roofline time of a Compute on rank ``r``'s device."""
        key = (self._devkey[r], op.flops, op.bytes_moved, op.efficiency)
        dt = self._compute_cache.get(key)
        if dt is None:
            dt = self.machine.compute_seconds(r, op.flops, op.bytes_moved,
                                              op.efficiency)
            self._compute_cache[key] = dt
        return dt

    def _collective_cost(self, members: tuple[int, ...],
                         ops: list[Collective]) -> float:
        return self._cost(ops[0].comm_id, members, ops[0].kind,
                          collective_arg_bytes(ops))

    def _cost(self, cid: int, members: tuple[int, ...], kind: str,
              arg: float) -> float:
        """A collective's cost on communicator ``cid`` for ``arg`` bytes."""
        cost = self._cost_cache.get((cid, kind, arg))
        if cost is None:
            node_set = self._node_sets.get(cid)
            if node_set is None:
                node_set = self.machine.node_set(members)
                self._node_sets[cid] = node_set
            cost = collective_cost(self.machine.network, node_set,
                                   len(members), kind, arg)
            self._cost_cache[cid, kind, arg] = cost
        return cost

    # -- rank stepping ----------------------------------------------------------

    def _step_rank(self, r: int) -> None:
        """Drive rank ``r`` until it blocks or returns."""
        if self._finished[r]:
            return
        send = self._gens[r].send
        resume = self._resume
        clocks = self.clocks
        trace = self.traces[r]
        compute = trace.compute
        value = resume[r]
        resume[r] = None
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                outer = self._outer.pop(r, None)
                if outer is None:
                    self._finished[r] = True
                    self._values[r] = stop.value
                    return
                # a lowered batch ran out: the program gets its results
                self._gens[r] = outer
                send = outer.send
                value = stop.value
                continue
            except VmpiError:
                raise
            except BaseException as exc:
                raise RankFailedError(r, exc) from exc
            kind = type(op)
            if kind is Compute:
                dt = self._price(r, op)
                trace.ops += 1
                clocks[r] += dt
                compute[op.label] += dt
                value = None
                continue
            if kind is tuple:
                # a batch runs op by op; the program resumes once, with
                # the results, when the batch runs out
                self._outer[r] = self._gens[r]
                self._gens[r] = batch = _lowered(r, op)
                send = batch.send
                value = None
                continue
            if not self._dispatch(r, op):
                return  # blocked; resumes later via _wake
            value = resume[r]
            resume[r] = None

    def _dispatch(self, r: int, op: Op) -> bool:
        """Process one non-Compute op; True if the rank may continue."""
        self.traces[r].ops += 1
        kind = type(op)
        if kind is Exchange:
            return self._post_exchange(r, op)
        if kind is Collective:
            return self._post_collective(r, op)
        if kind is Sendrecv:
            return self._sendrecv_requests(r, op)
        if kind is Elapse:
            self.clocks[r] += op.seconds
            self.traces[r].compute[op.label] += op.seconds
            return True
        if kind is Isend:
            self._resume[r] = self._post_send(r, op.dest, op.payload, op.tag,
                                              op.comm_id)
            return True
        if kind is Irecv:
            self._resume[r] = self._post_recv(r, op.source, op.tag, op.comm_id)
            return True
        if kind is Send:
            req = self._post_send(r, op.dest, op.payload, op.tag, op.comm_id)
            return self._wait_on(r, (req,), single=True)
        if kind is Recv:
            req = self._post_recv(r, op.source, op.tag, op.comm_id)
            return self._wait_on(r, (req,), single=True)
        if kind is Wait:
            return self._wait_on(r, (op.request,), single=True)
        if kind is Waitall:
            return self._wait_on(r, op.requests, single=False)
        raise VmpiError(f"rank {r} yielded a non-op: {op!r}")

    # -- point-to-point (the per-request machinery) ----------------------------

    def _members(self, comm_id: int) -> tuple[int, ...]:
        members = self._comms.get(comm_id)
        if members is None:
            raise VmpiError(f"unknown communicator id {comm_id}")
        return members

    def _global(self, comm_id: int, local: int) -> int:
        return self._members(comm_id)[local]

    def _post_send(self, r: int, dest_local: int, payload: Any, tag: int,
                   comm_id: int, rnd: tuple = ()) -> Request:
        """Post a send; ``rnd = (round,)`` posts an exchange's edge, in its
        own key space (and counted when the exchange was posted)."""
        dest = self._global(comm_id, dest_local)
        self._rid += 1
        nbytes = nbytes_of(payload)
        req = Request(rank=r, is_send=True, peer=dest, tag=tag,
                      comm_id=comm_id, post_time=self.clocks[r],
                      payload=payload, rid=self._rid, nbytes=nbytes)
        # Bytes are accounted at post time (program order), so every
        # path accumulates per-rank counters in the same float order.
        if not rnd:
            self.traces[r].bytes_sent += nbytes
        if nbytes <= self.eager_limit:
            # Eager protocol: the send buffers locally and completes after
            # the injection overhead, independent of the receiver.
            req.done = True
            req.complete_time = req.post_time + \
                self._p2p_seconds(r, dest, nbytes)
        key = (comm_id, r, dest, tag) + rnd
        match_q = self._recvs.get(key)
        if match_q:
            self._complete_transfer(req, match_q.popleft())
        else:
            self._sends[key].append(req)
        return req

    def _post_recv(self, r: int, source_local: int, tag: int,
                   comm_id: int, rnd: tuple = ()) -> Request:
        source = self._global(comm_id, source_local)
        self._rid += 1
        req = Request(rank=r, is_send=False, peer=source, tag=tag,
                      comm_id=comm_id, post_time=self.clocks[r], rid=self._rid)
        key = (comm_id, source, r, tag) + rnd
        match_q = self._sends.get(key)
        if match_q:
            self._complete_transfer(match_q.popleft(), req)
        else:
            self._recvs[key].append(req)
        return req

    def _sendrecv_requests(self, r: int, op: Sendrecv) -> bool:
        """A Sendrecv on the per-request path: one send, one receive."""
        sreq = self._post_send(r, op.dest, op.payload, op.tag, op.comm_id)
        rreq = self._post_recv(r, op.source, op.tag, op.comm_id)
        return self._wait_on(r, (sreq, rreq), single=False, sendrecv=True)

    def _complete_transfer(self, send: Request, recv: Request) -> None:
        dt = self._p2p_seconds(send.rank, recv.rank, send.nbytes)
        done = max(send.post_time, recv.post_time) + dt
        if not send.done:  # eager sends already completed locally
            send.done = True
            send.complete_time = done
        recv.done = True
        recv.complete_time = done
        recv.result = send.payload
        for req in (send, recv):
            group = self._wait_groups.get(req)
            if group is not None:
                self._check_group(group)

    # -- waiting ------------------------------------------------------------------

    def _wait_on(self, r: int, requests: tuple[Request, ...], *,
                 single: bool, sendrecv: bool = False,
                 exchange: Exchange | None = None) -> bool:
        for req in requests:
            if req.rank != r:
                raise VmpiError(
                    f"rank {r} waiting on request posted by rank {req.rank}")
        group = _WaitGroup(rank=r, requests=requests,
                           single=single and not sendrecv,
                           sendrecv=sendrecv, exchange=exchange)
        if all(req.done for req in requests):
            self._finish_group(group)
            return True
        for req in requests:
            if not req.done:
                self._wait_groups[req] = group
        self._blocked[r] = group
        return False

    def _check_group(self, group: _WaitGroup) -> None:
        if all(req.done for req in group.requests):
            for req in group.requests:
                self._wait_groups.pop(req, None)
            self._finish_group(group)
            self._blocked.pop(group.rank, None)
            self._wake(group.rank)

    def _finish_group(self, group: _WaitGroup) -> None:
        r = group.rank
        reqs = group.requests
        done = max((req.complete_time for req in reqs), default=self.clocks[r])
        waited = max(0.0, done - self.clocks[r])
        self.clocks[r] = max(self.clocks[r], done)
        if group.exchange is not None:
            self.traces[r].comm[group.exchange.label] += waited
            nsends = len(group.exchange.sends)
            self._resume[r] = [req.result for req in reqs[nsends:]]
            return
        self.traces[r].comm["p2p"] += waited
        if group.sendrecv:
            recv = next(req for req in reqs if not req.is_send)
            self._resume[r] = recv.result
        elif group.single:
            req = reqs[0]
            self._resume[r] = req.result if not req.is_send else None
        else:
            self._resume[r] = [req.result if not req.is_send else None
                               for req in reqs]

    # -- fused exchanges -------------------------------------------------------

    def _post_exchange(self, r: int, op: Exchange) -> bool:
        """Post an exchange's edges through the per-edge FIFO machinery as
        round ``k`` of rank ``r``'s exchanges on ``(comm, tag)``, keyed
        ``(comm, src, dst, tag, k)``: they never match plain p2p (keyed
        without a round) nor another round."""
        cid, tag = op.comm_id, op.tag
        k = self._xseq[cid, tag, r]
        self._xseq[cid, tag, r] = k + 1
        self.traces[r].bytes_sent += exchange_bytes(op)
        rnd = (k,)
        reqs = [self._post_send(r, d, p, tag, cid, rnd) for d, p in op.sends]
        reqs += [self._post_recv(r, s, tag, cid, rnd) for s in op.recvs]
        return self._wait_on(r, tuple(reqs), single=False, exchange=op)

    def _edge_plan(self, members: tuple[int, ...],
                   edges: tuple) -> XchgPlan | None:
        """A halo column's edge arrays paired and priced on this machine."""
        return build_plan(members, edges, self._node, self._p2p_params,
                          self.eager_limit)

    # -- collectives ---------------------------------------------------------------

    def _post_collective(self, r: int, op: Collective) -> bool:
        cid = op.comm_id
        st = self._cst.get(cid)
        if st is None:
            st = self._cst[cid] = CollRound(self._members(cid))
        local = st.local.get(r)
        if local is None:
            raise VmpiError(f"rank {r} is not a member of comm {cid}")
        # No per-rank blocked marker: a waiting member is found through
        # ``_cst`` when a deadlock has to be described.
        st.ops[local] = op
        st.posts[local] = self.clocks[r]
        st.count += 1
        if st.count < st.nmem:
            return False
        self._complete_collective(st, caller=r)
        return True

    def _complete_collective(self, st: CollRound, caller: int) -> None:
        """Finish a fully-posted round: every member leaves at the
        latest post plus the modelled cost."""
        ops, posts, members = st.ops, st.posts, st.members
        st.ops = [None] * st.nmem
        st.count = 0
        validate_collective(ops)
        results = collective_results(members, ops, self._do_split)
        cost = self._collective_cost(members, ops)
        label = ops[0].label or ops[0].kind
        done = max(posts) + cost
        clocks, traces, resume = self.clocks, self.traces, self._resume
        push = self._heap.push
        for i, g in enumerate(members):
            waited = done - posts[i]
            clocks[g] = done
            trace = traces[g]
            trace.comm[label] += waited if waited > 0.0 else 0.0
            trace.bytes_sent += nbytes_of(ops[i].payload)
            resume[g] = results[i]
            if g != caller:
                push(done, g)

    def _pending_collectives(self) -> Iterator[list[tuple[int, Collective]]]:
        """``(local rank, op)`` posts of each unfinished round, comm order."""
        for cid in sorted(self._cst):
            st = self._cst[cid]
            if st.count:
                yield [(i, op) for i, op in enumerate(st.ops)
                       if op is not None]

    def _do_split(self, members: tuple[int, ...],
                  payloads: list[Any]) -> list[Any]:
        color, key = np.array(payloads, dtype=np.int64).reshape(-1, 2).T
        cids, local = self._split_table(members, color, key)[:2]
        return [Comm(comm_id=c, rank=i, members=self._comms[c])
                for c, i in zip(cids.tolist(), local.tolist())]

    def _split_table(self, members: tuple[int, ...], color: np.ndarray,
                     key: np.ndarray) -> tuple[np.ndarray, ...]:
        """Allocate a split's communicators -- one per color, ascending,
        members ordered by ``(key, global rank)`` -- and return, per
        member, its new comm id, local rank, comm size and the offset
        of its comm in the last array: the new members back to back."""
        glob = np.asarray(members)
        order = np.lexsort((glob, key, color))
        _, first, counts = np.unique(color[order], return_index=True,
                                     return_counts=True)
        which = np.repeat(np.arange(len(first)), counts)
        table = np.empty((4, len(glob)), dtype=np.int64)
        table[:, order] = (self._next_comm_id + which,
                           np.arange(len(glob)) - first[which],
                           counts[which], first[which])
        placed = glob[order]
        for lo, hi in zip(first.tolist(), (first + counts).tolist()):
            self._comms[self._next_comm_id] = tuple(placed[lo:hi].tolist())
            self._next_comm_id += 1
        return (*table, placed)

    # -- failure reporting -----------------------------------------------------

    def _blocked_detail(self, r: int) -> str:
        group = self._blocked.get(r)
        if group is not None:
            pending = [_describe_request(q) for q in group.requests
                       if not q.done]
            if group.exchange is not None:
                return (f"exchange on comm {group.exchange.comm_id} -- "
                        f"{len(pending)} transfer(s) pending: "
                        + ", ".join(pending))
            return (f"waiting on {len(group.requests)} request(s); "
                    f"pending: " + ", ".join(pending))
        for cid, cst in sorted(self._cst.items()):
            local = cst.local.get(r)
            op = None if local is None else cst.ops[local]
            if op is not None:
                return (f"collective {op.kind!r} on comm {cid} "
                        f"({cst.count}/{cst.nmem} ranks arrived)")
        return "unknown"

    def _raise_stuck(self) -> None:
        """Report why the run cannot make progress: a partially-posted
        collective whose arrivals disagree is a mismatch, anything else
        a :class:`DeadlockError` listing every blocked rank's pending op."""
        for posted in self._pending_collectives():
            msg = partial_mismatch(posted)
            if msg:
                raise CollectiveMismatchError(msg)
        stuck = {r: self._blocked_detail(r)
                 for r in range(self.machine.nranks) if not self._finished[r]}
        detail = "; ".join(f"rank {r}: {d}" for r, d in stuck.items())
        raise DeadlockError(f"deadlock -- blocked ranks: {detail}")


def run_spmd(fn: Callable[..., Iterator[Op]], *,
             machine: Machine | None = None,
             nranks: int | None = None,
             nodes: int | None = None,
             args: tuple = (),
             kwargs: dict | None = None,
             rank_kwargs: list[dict] | None = None,
             tracer: Any = None) -> SpmdResult:
    """Convenience entry point: run ``fn`` as an SPMD program.

    Provide either an explicit ``machine``, a ``nodes`` count (JUWELS
    Booster placement, 4 ranks/node), or a bare ``nranks`` (packed onto
    Booster nodes).
    """
    if machine is None:
        if nodes is not None:
            machine = Machine.booster(nodes)
        elif nranks is not None:
            machine = Machine.on(juwels_booster(), nranks)
        else:
            raise ValueError("need machine=, nodes= or nranks=")
    if nranks is not None and machine.nranks != nranks:
        raise ValueError(f"machine has {machine.nranks} ranks, expected {nranks}")
    return VmpiEngine(machine).run(fn, args=args, kwargs=kwargs,
                                   rank_kwargs=rank_kwargs, tracer=tracer)
