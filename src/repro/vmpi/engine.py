"""Deterministic virtual-MPI execution engine (step and event cores).

Rank programs (generators yielding :mod:`~repro.vmpi.ops` descriptors)
are co-scheduled in-process.  Real payloads are actually moved and
reduced -- so distributed algorithms can be validated -- while every
operation advances a per-rank *virtual clock* using the machine model,
so the same program produces large-machine timing from a laptop.

Two interchangeable cores execute the same semantics:

* ``mode="step"`` -- the original polling scheduler: a FIFO ready
  deque drives each rank until it blocks; every op re-derives its
  network/compute cost from the machine model.
* ``mode="event"`` (default) -- the discrete-event core in
  :mod:`repro.vmpi.events`: unblocked ranks are resumed from one
  global event heap in virtual-time order, per-path and per-kernel
  costs are cached, and fused :class:`~repro.vmpi.ops.Exchange` rounds
  are advanced with closed-form alpha-beta algebra over vectorized
  NumPy rank arrays instead of per-edge request machinery.

Select a core with ``VmpiEngine(machine, mode=...)``, the
``REPRO_VMPI_MODE`` environment variable, or the ``--vmpi-mode`` CLI
flag.  The two cores are *observationally equivalent*: the
differential suite in ``tests/test_vmpi_differential.py`` asserts
byte-identical results, clocks, traces and Chrome exports for every
program in the repository.  That works because all value- and
float-producing paths are shared (:mod:`repro.vmpi.collectives`, the
network closed forms, the matching rules below) and only *host-side
scheduling* differs, which virtual time never observes.

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
  queues for p2p, per-rank sequence counters for collectives, and
  per-``(comm, tag)`` round counters for fused exchanges (an
  :class:`~repro.vmpi.ops.Exchange` matches only other exchanges of
  the same round, like MPI neighborhood collectives).
* Collectives are synchronising: completion is ``max(post times) +
  model cost``; all ranks leave with the same clock.
* A rank may yield a *tuple* of ops (a batch): the ops run in order
  and the rank resumes once with the list of their results.  Hoisting
  a constant batch out of a stepping loop saves generator round trips;
  it is not needed for plan reuse -- the facade returns the same op for
  a re-requested immutable descriptor (see :mod:`repro.vmpi.comm`), and
  the event core keys its plans on that identity.
* Scheduling is deterministic in both cores, so runs are exactly
  reproducible -- a suite requirement (replicability, Sec. II-A).
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

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
from .trace import RankTrace, SpmdResult

__all__ = [
    "CollectiveMismatchError",
    "DeadlockError",
    "Engine",
    "MODES",
    "RankFailedError",
    "StepEngine",
    "VmpiEngine",
    "VmpiError",
    "default_mode",
    "run_spmd",
]

#: engine cores selectable via ``VmpiEngine(mode=...)``
MODES = ("event", "step")


def default_mode() -> str:
    """The core used when no ``mode`` is given.

    ``event`` unless overridden by the ``REPRO_VMPI_MODE`` environment
    variable.
    """
    mode = os.environ.get("REPRO_VMPI_MODE", "event")
    if mode not in MODES:
        raise ValueError(
            f"REPRO_VMPI_MODE={mode!r} is not one of {'/'.join(MODES)}")
    return mode


@dataclass
class _WaitGroup:
    """A rank blocked until a set of requests completes."""

    rank: int
    requests: tuple[Request, ...]
    blocked_at: float
    single: bool  # resume with one result instead of a list
    sendrecv: bool = False  # resume with the received payload only
    exchange: Exchange | None = None  # decomposed fused exchange


def _describe_request(req: Request) -> str:
    what = "send to" if req.is_send else "recv from"
    return f"{what} rank {req.peer} (comm {req.comm_id}, tag {req.tag})"


def _exchange_bytes(op: Exchange) -> float:
    """Total send bytes of an exchange (left fold, cached on the op)."""
    total = op.__dict__.get("_nbytes_total")
    if total is None:
        total = 0.0
        for _, payload in op.sends:
            total = total + nbytes_of(payload)
        object.__setattr__(op, "_nbytes_total", total)
    return total


class VmpiEngine:
    """Runs one SPMD program over a :class:`~repro.vmpi.machine.Machine`.

    ``VmpiEngine(machine, mode="step"|"event")`` dispatches to the
    matching core (:class:`StepEngine` here, ``EventEngine`` in
    :mod:`repro.vmpi.events`); with ``mode=None`` the
    :func:`default_mode` applies.  This base class holds every piece of
    machinery the cores share -- program spawning, op dispatch, p2p
    matching, wait groups, collectives, communicator splits, deadlock
    reporting -- so the cores differ only in scheduling and caching.

    ``eager_limit`` mirrors MPI's eager protocol: sends at or below this
    size complete locally without waiting for the matching receive
    (buffered), while larger messages rendezvous.  Without this, common
    patterns that are legal in practice (small out-of-order tagged sends,
    self-messages) would deadlock.
    """

    EAGER_LIMIT = 64 * 1024  # bytes
    #: core identity; stamped on the :class:`SpmdResult`
    mode = "step"

    def __new__(cls, machine: Machine = None, mode: str | None = None,
                eager_limit: int | None = None) -> "VmpiEngine":
        if cls is not VmpiEngine:
            return super().__new__(cls)
        resolved = default_mode() if mode is None else mode
        if resolved == "step":
            return super().__new__(StepEngine)
        if resolved == "event":
            from .events import EventEngine
            return super().__new__(EventEngine)
        raise ValueError(
            f"unknown vmpi mode {resolved!r}; pick one of {'/'.join(MODES)}")

    def __init__(self, machine: Machine, mode: str | None = None,
                 eager_limit: int | None = None):
        if mode is not None and mode != self.mode:
            raise ValueError(
                f"{type(self).__name__} implements mode {self.mode!r}, "
                f"not {mode!r}")
        self.machine = machine
        self.eager_limit = self.EAGER_LIMIT if eager_limit is None else eager_limit
        n = machine.nranks
        self.clocks = [0.0] * n
        self.traces = [RankTrace() for _ in range(n)]
        self._gens: list[Iterator[Op]] = []
        self._resume: list[Any] = [None] * n
        self._finished = [False] * n
        self._values: list[Any] = [None] * n
        self._blocked: dict[int, Any] = {}       # rank -> blocked marker
        self._sends: dict[tuple, deque[Request]] = defaultdict(deque)
        self._recvs: dict[tuple, deque[Request]] = defaultdict(deque)
        self._wait_groups: dict[Request, _WaitGroup] = {}
        self._comms: dict[int, tuple[int, ...]] = {0: tuple(range(n))}
        self._next_comm_id = 1
        self._coll_seq: dict[tuple[int, int], int] = defaultdict(int)
        self._coll_pending: dict[tuple[int, int], dict[int, tuple[Collective, float]]] = {}
        self._xseq: dict[tuple[int, int, int], int] = defaultdict(int)
        self._batch: dict[int, list] = {}  # rank -> [ops, idx, results, waiting]
        self._rid = 0

    # -- public --------------------------------------------------------------

    def run(self, fn: Callable[..., Iterator[Op]], *,
            args: tuple = (), kwargs: dict | None = None,
            rank_kwargs: list[dict] | None = None,
            tracer: Any = None) -> SpmdResult:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank.

        ``rank_kwargs`` optionally supplies per-rank keyword overrides;
        ``tracer`` (a :class:`~repro.telemetry.Tracer`) wraps the run in
        a ``vmpi.run`` span carrying the core mode.  Returns the
        per-rank return values, final clocks and traces.
        """
        if tracer is not None and getattr(tracer, "enabled", False):
            with tracer.span("vmpi.run", mode=self.mode,
                             nranks=self.machine.nranks):
                return self._run(fn, args, kwargs, rank_kwargs)
        return self._run(fn, args, kwargs, rank_kwargs)

    def _run(self, fn: Callable[..., Iterator[Op]], args: tuple,
             kwargs: dict | None,
             rank_kwargs: list[dict] | None) -> SpmdResult:
        n = self.machine.nranks
        kwargs = kwargs or {}
        for r in range(n):
            kw = dict(kwargs)
            if rank_kwargs is not None:
                kw.update(rank_kwargs[r])
            comm = Comm(comm_id=0, rank=r, members=self._comms[0])
            gen = fn(comm, *args, **kw)
            if not inspect.isgenerator(gen):
                raise TypeError(
                    f"rank program {fn.__name__!r} must be a generator function")
            self._gens.append(gen)
        for r in range(n):
            self._wake(r)
        self._loop()
        while not all(self._finished) and self._quiesce():
            self._loop()
        if not all(self._finished):
            self._raise_stuck()
        return SpmdResult(values=self._values, clocks=self.clocks,
                          traces=self.traces, mode=self.mode)

    # -- scheduling hooks (overridden by the cores) ---------------------------

    def _wake(self, r: int) -> None:
        """Make rank ``r`` runnable (it unblocked at ``self.clocks[r]``)."""
        raise NotImplementedError

    def _loop(self) -> None:
        """Drain runnable ranks until nothing can proceed."""
        raise NotImplementedError

    def _quiesce(self) -> bool:
        """Last-resort progress hook before declaring deadlock.

        Cores with buffered state (the event core's pending exchange
        rounds) flush it here; True means the loop should run again.
        """
        return False

    # -- cost hooks (cached by the event core) --------------------------------

    def _p2p_seconds(self, src: int, dst: int, nbytes: float) -> float:
        return self.machine.p2p_seconds(src, dst, nbytes)

    def _compute_seconds(self, r: int, flops: float, bytes_moved: float,
                         efficiency: float) -> float:
        return self.machine.compute_seconds(r, flops, bytes_moved, efficiency)

    def _local_of(self, comm_id: int, r: int) -> int:
        members = self._comms[comm_id]
        try:
            return members.index(r)
        except ValueError:
            raise VmpiError(
                f"rank {r} is not a member of comm {comm_id}") from None

    # -- rank stepping ----------------------------------------------------------

    def _step_rank(self, r: int) -> None:
        """Drive rank ``r`` until it blocks or returns."""
        if self._finished[r]:
            return
        batch = self._batch.get(r)
        if batch is not None and not self._advance_batch(r, batch):
            return
        gen = self._gens[r]
        while True:
            value, self._resume[r] = self._resume[r], None
            try:
                op = gen.send(value)
            except StopIteration as stop:
                self._finished[r] = True
                self._values[r] = stop.value
                return
            except VmpiError:
                raise
            except BaseException as exc:
                raise RankFailedError(r, exc) from exc
            if type(op) is tuple:
                batch = [op, 0, [None] * len(op), False]
                self._batch[r] = batch
                if not self._advance_batch(r, batch):
                    return
            elif not self._dispatch(r, op):
                return  # blocked; resumes later via _wake

    def _advance_batch(self, r: int, batch: list) -> bool:
        """Drive a tuple batch; True once every element completed."""
        ops, results = batch[0], batch[2]
        if batch[3]:  # a blocked element just resumed
            results[batch[1] - 1] = self._resume[r]
            self._resume[r] = None
            batch[3] = False
        while batch[1] < len(ops):
            i = batch[1]
            batch[1] = i + 1
            op = ops[i]
            if type(op) is tuple:
                raise VmpiError(f"rank {r} yielded a nested op batch")
            if self._dispatch(r, op):
                results[i] = self._resume[r]
                self._resume[r] = None
            else:
                batch[3] = True
                return False
        del self._batch[r]
        self._resume[r] = results
        return True

    def _dispatch(self, r: int, op: Op) -> bool:
        """Process one op; True if the rank may continue immediately."""
        self.traces[r].ops += 1
        kind = type(op)
        if kind is Compute:
            dt = self._compute_seconds(r, op.flops, op.bytes_moved,
                                       op.efficiency)
            self.clocks[r] += dt
            self.traces[r].compute[op.label] += dt
            return True
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
        if kind is Sendrecv:
            sreq = self._post_send(r, op.dest, op.payload, op.tag, op.comm_id)
            rreq = self._post_recv(r, op.source, op.tag, op.comm_id)
            return self._wait_on(r, (sreq, rreq), single=False, sendrecv=True)
        if kind is Wait:
            return self._wait_on(r, (op.request,), single=True)
        if kind is Waitall:
            return self._wait_on(r, op.requests, single=False)
        if kind is Collective:
            return self._post_collective(r, op)
        if kind is Exchange:
            return self._post_exchange(r, op)
        raise VmpiError(f"rank {r} yielded a non-op: {op!r}")

    # -- point-to-point --------------------------------------------------------

    def _global(self, comm_id: int, local: int) -> int:
        members = self._comms.get(comm_id)
        if members is None:
            raise VmpiError(f"unknown communicator id {comm_id}")
        return members[local]

    def _post_send(self, r: int, dest_local: int, payload: Any, tag: int,
                   comm_id: int) -> Request:
        dest = self._global(comm_id, dest_local)
        self._rid += 1
        nbytes = nbytes_of(payload)
        req = Request(rank=r, is_send=True, peer=dest, tag=tag,
                      comm_id=comm_id, post_time=self.clocks[r],
                      payload=payload, rid=self._rid, nbytes=nbytes)
        # Bytes are accounted at post time (program order), so both
        # cores accumulate per-rank counters in the same float order.
        self.traces[r].bytes_sent += nbytes
        if nbytes <= self.eager_limit:
            # Eager protocol: the send buffers locally and completes after
            # the injection overhead, independent of the receiver.
            req.done = True
            req.complete_time = req.post_time + \
                self._p2p_seconds(r, dest, nbytes)
        key = (comm_id, r, dest, tag)
        match_q = self._recvs.get(key)
        if match_q:
            self._complete_transfer(req, match_q.popleft())
        else:
            self._sends[key].append(req)
        return req

    def _post_recv(self, r: int, source_local: int, tag: int,
                   comm_id: int) -> Request:
        source = self._global(comm_id, source_local)
        self._rid += 1
        req = Request(rank=r, is_send=False, peer=source, tag=tag,
                      comm_id=comm_id, post_time=self.clocks[r], rid=self._rid)
        key = (comm_id, source, r, tag)
        match_q = self._sends.get(key)
        if match_q:
            self._complete_transfer(match_q.popleft(), req)
        else:
            self._recvs[key].append(req)
        return req

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
                           blocked_at=self.clocks[r],
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
        """Step core: decompose into round-matched per-edge transfers."""
        ekey = (op.comm_id, op.tag)
        rnd = self._xseq[ekey + (r,)]
        self._xseq[ekey + (r,)] = rnd + 1
        self.traces[r].bytes_sent += _exchange_bytes(op)
        return self._decompose_exchange(r, op, ekey + (rnd,))

    def _decompose_exchange(self, r: int, op: Exchange,
                            ekey: tuple[int, int, int]) -> bool:
        """Post an exchange's edges through the per-edge FIFO machinery.

        Edges live in a ``("x", comm, tag, round, src, dst)`` key space:
        the k-th send of a round on a directed pair matches the k-th
        receive of the *same* round -- exchanges never match plain p2p
        and never match across rounds.
        """
        reqs = []
        for dest_local, payload in op.sends:
            reqs.append(self._post_edge(r, True, dest_local, payload, ekey))
        for src_local in op.recvs:
            reqs.append(self._post_edge(r, False, src_local, None, ekey))
        return self._wait_on(r, tuple(reqs), single=False, exchange=op)

    def _post_edge(self, r: int, is_send: bool, peer_local: int,
                   payload: Any, ekey: tuple[int, int, int]) -> Request:
        cid, tag = ekey[0], ekey[1]
        peer = self._global(cid, peer_local)
        self._rid += 1
        if is_send:
            nbytes = nbytes_of(payload)
            req = Request(rank=r, is_send=True, peer=peer, tag=tag,
                          comm_id=cid, post_time=self.clocks[r],
                          payload=payload, rid=self._rid, nbytes=nbytes)
            if nbytes <= self.eager_limit:
                req.done = True
                req.complete_time = req.post_time + \
                    self._p2p_seconds(r, peer, nbytes)
            key = ("x",) + ekey + (r, peer)
            match_q = self._recvs.get(key)
            if match_q:
                self._complete_transfer(req, match_q.popleft())
            else:
                self._sends[key].append(req)
        else:
            req = Request(rank=r, is_send=False, peer=peer, tag=tag,
                          comm_id=cid, post_time=self.clocks[r],
                          rid=self._rid)
            key = ("x",) + ekey + (peer, r)
            match_q = self._sends.get(key)
            if match_q:
                self._complete_transfer(match_q.popleft(), req)
            else:
                self._recvs[key].append(req)
        return req

    # -- collectives ---------------------------------------------------------------

    def _post_collective(self, r: int, op: Collective) -> bool:
        members = self._comms.get(op.comm_id)
        if members is None:
            raise VmpiError(f"unknown communicator id {op.comm_id}")
        local = self._local_of(op.comm_id, r)
        seq = self._coll_seq[(op.comm_id, r)]
        self._coll_seq[(op.comm_id, r)] = seq + 1
        key = (op.comm_id, seq)
        pending = self._coll_pending.setdefault(key, {})
        pending[local] = (op, self.clocks[r])
        if len(pending) < len(members):
            self._blocked[r] = (op, key)
            return False
        del self._coll_pending[key]
        self._finish_collective(members, pending, caller=r)
        return True

    def _finish_collective(self, members: tuple[int, ...],
                           pending: dict[int, tuple[Collective, float]],
                           caller: int) -> None:
        ops = [pending[i][0] for i in range(len(members))]
        posts = [pending[i][1] for i in range(len(members))]
        validate_collective(ops)
        results = collective_results(members, ops, self._do_split)
        cost = self._collective_cost(members, ops)
        done = max(posts) + cost
        first = ops[0]
        label = first.label or first.kind
        clocks, traces = self.clocks, self.traces
        for i, g in enumerate(members):
            waited = max(0.0, done - clocks[g])
            clocks[g] = done
            trace = traces[g]
            trace.comm[label] += waited
            trace.bytes_sent += nbytes_of(ops[i].payload)
            self._resume[g] = results[i]
            if g != caller:
                self._blocked.pop(g, None)
                self._wake(g)

    def _collective_cost(self, members: tuple[int, ...],
                         ops: list[Collective]) -> float:
        arg = collective_arg_bytes(ops)
        node_set = self.machine.node_set(members)
        return collective_cost(self.machine.network, node_set, len(members),
                               ops[0].kind, arg)

    def _pending_collectives(self) -> Iterator[list[tuple[int, Collective]]]:
        """``(local rank, op)`` posts of each unfinished round, key order."""
        for key in sorted(self._coll_pending):
            yield [(local, op) for local, (op, _)
                   in self._coll_pending[key].items()]

    def _do_split(self, members: tuple[int, ...],
                  payloads: list[Any]) -> list[Any]:
        groups: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for local, (color, key) in enumerate(payloads):
            groups[color].append((key, members[local], local))
        results: list[Any] = [None] * len(members)
        for color in sorted(groups):
            ordered = sorted(groups[color])
            new_members = tuple(g for _, g, _ in ordered)
            cid = self._next_comm_id
            self._next_comm_id += 1
            self._comms[cid] = new_members
            for new_local, (_, _g, old_local) in enumerate(ordered):
                results[old_local] = Comm(comm_id=cid, rank=new_local,
                                          members=new_members)
        return results

    # -- failure reporting -----------------------------------------------------

    def _blocked_detail(self, r: int) -> str:
        marker = self._blocked.get(r)
        if marker is None:
            return "unknown"
        if isinstance(marker, _WaitGroup):
            pending = [_describe_request(q) for q in marker.requests
                       if not q.done]
            if marker.exchange is not None:
                return (f"exchange on comm {marker.exchange.comm_id} -- "
                        f"{len(pending)} transfer(s) pending: "
                        + ", ".join(pending))
            return (f"waiting on {len(marker.requests)} request(s); "
                    f"pending: " + ", ".join(pending))
        op, key = marker
        arrived = len(self._coll_pending.get(key, {}))
        members = self._comms.get(op.comm_id, ())
        return (f"collective {op.kind!r} on comm {op.comm_id} "
                f"({arrived}/{len(members)} ranks arrived)")

    def _raise_stuck(self) -> None:
        """Report why the run cannot make progress.

        A partially-posted collective whose arrivals already disagree is
        a :class:`CollectiveMismatchError`; anything else is a
        :class:`DeadlockError` listing every blocked rank's pending op.
        """
        for posted in self._pending_collectives():
            msg = partial_mismatch(posted)
            if msg:
                raise CollectiveMismatchError(msg)
        stuck = {r: self._blocked_detail(r)
                 for r in range(self.machine.nranks) if not self._finished[r]}
        detail = "; ".join(f"rank {r}: {d}" for r, d in stuck.items())
        raise DeadlockError(f"deadlock -- blocked ranks: {detail}")


class StepEngine(VmpiEngine):
    """The original polling core: a FIFO ready deque drives each rank
    until it blocks; every op re-derives its cost from the machine
    model.  Kept as the differential baseline for the event core."""

    mode = "step"

    def __init__(self, machine: Machine, mode: str | None = None,
                 eager_limit: int | None = None):
        super().__init__(machine, mode=mode, eager_limit=eager_limit)
        self._ready: deque[int] = deque()

    def _wake(self, r: int) -> None:
        self._ready.append(r)

    def _loop(self) -> None:
        ready = self._ready
        while ready:
            self._step_rank(ready.popleft())


#: Back-compat alias: the seed engine class was simply ``Engine``.
Engine = VmpiEngine


def run_spmd(fn: Callable[..., Iterator[Op]], *,
             machine: Machine | None = None,
             nranks: int | None = None,
             nodes: int | None = None,
             args: tuple = (),
             kwargs: dict | None = None,
             rank_kwargs: list[dict] | None = None,
             mode: str | None = None,
             tracer: Any = None) -> SpmdResult:
    """Convenience entry point: run ``fn`` as an SPMD program.

    Provide either an explicit ``machine``, a ``nodes`` count (JUWELS
    Booster placement, 4 ranks/node), or a bare ``nranks`` (packed onto
    Booster nodes).  ``mode`` selects the engine core (see
    :func:`default_mode`).
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
    return VmpiEngine(machine, mode=mode).run(fn, args=args, kwargs=kwargs,
                                              rank_kwargs=rank_kwargs,
                                              tracer=tracer)
