"""The discrete-event virtual-MPI core.

This core executes the exact semantics of
:class:`~repro.vmpi.engine.VmpiEngine` (see that module's docstring for
the shared matching and timing rules) but schedules and prices them the
way a discrete-event simulator does:

* **event heap** -- unblocked ranks are resumed from one global
  :class:`~repro.vmpi.heap.EventHeap` keyed by their virtual clock, so
  execution sweeps virtual time in causal order instead of polling a
  FIFO of ranks;
* **cost caches** -- point-to-point alpha-beta parameters are cached
  per node pair, roofline compute times per ``(device, kernel)`` (and,
  on homogeneous jobs, pinned on the op object itself, so hoisted
  constant kernels replay their time without any dict-key packing), and
  collective costs per ``(comm, kind, bytes)``, so the machine model is
  consulted once per distinct question instead of once per op;
* **vectorized exchange rounds** -- fused
  :class:`~repro.vmpi.ops.Exchange` ops are buffered per
  ``(comm, tag, round)`` and, once every member has posted, the whole
  round's clock advance is computed with closed-form alpha-beta algebra
  over NumPy arrays (one ``max``/``where`` sweep over all edges) rather
  than per-edge request machinery.  Exchanges posted as the same op
  objects again reuse a cached per-round *plan* (edge arrays, transfer
  times, result lists);
* **persistent descriptors** -- the plans and pinned prices above are
  keyed on op *identity*, and the :class:`~repro.vmpi.comm.Comm` facade
  and :func:`~repro.vmpi.decomposition.halo_exchange_op` hand a rank the
  same op again whenever it re-requests an immutable descriptor, so an
  ordinary stepping loop is built, paired and priced once per run;
* **collective plans** -- a communicator has one round in flight
  (collectives synchronise), buffered in flat per-local-rank lists; a
  round whose members re-post the ops of a size-only round seen before
  skips validation, reduction, sizing and costing and replays them;
* **paired sendrecv** -- two ranks naming each other as destination
  and source complete in closed form, without per-transfer requests.

Heap invariants (the discrete-event contract):

1. every heap entry is an unblocked rank keyed by the virtual time at
   which it became runnable; a rank is in the heap at most once;
2. entries pop in nondecreasing ``(time, seq)`` order, ``seq`` being
   the monotone insertion counter, so equal-time wakes resume in the
   deterministic order they were caused;
3. state mutation (matching, clock algebra, payload movement) happens
   eagerly at post/match time -- the heap only orders *resumption*, so
   every float the run produces is independent of host scheduling and
   byte-identical to the step core's.

Exchange rounds that can never fill (only a subset of the communicator
exchanges) are drained by the quiescence hook: when the heap runs dry,
pending rounds are decomposed through the generic per-edge machinery,
which completes every matched transfer before deadlock is declared --
so partial participation behaves exactly as in the step core.  A
parked Sendrecv whose partner never pairs with it is lowered the same
way, there or as soon as anything else touches its channel.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop
from operator import is_, itemgetter

import numpy as np

from .engine import VmpiEngine, _exchange_bytes
from .collectives import (
    RankFailedError,
    VmpiError,
    collective_arg_bytes,
    collective_cost,
    collective_results,
    validate_collective,
)
from .heap import EventHeap
from .machine import Machine
from .ops import Collective, Compute, Exchange, Phantom, Sendrecv, nbytes_of

__all__ = ["EventEngine", "EventHeap"]

#: engine-unique attribute names for op-pinned compute times; a fresh
#: name per engine (never reused) means an op hoisted across engines or
#: machines can never serve a time priced for a different device
_CACHE_KEYS = itertools.count()


@dataclass
class _XchgPlan:
    """Precomputed completion algebra of one exchange round.

    Valid as long as every member posts the *same op objects* (hoisted
    constants); ``op_ids`` pins them.  Edge arrays are indexed by
    position in the communicator's member tuple.
    """

    op_ids: tuple[Exchange, ...]
    nedges: int
    src_idx: np.ndarray     # member index of each edge's sender
    dst_idx: np.ndarray     # member index of each edge's receiver
    t: np.ndarray           # per-edge transfer seconds (alpha + n/beta)
    eager: np.ndarray       # per-edge bool: send completes locally
    labels: tuple[str, ...]  # per-member comm-trace label
    results: tuple[list, ...]  # per-member received payloads, recvs order
    contig: bool            # members are exactly ranks 0..n-1


def _member_index(local: np.ndarray, nmem: int) -> np.ndarray:
    """Local ranks as member-tuple positions, with tuple-index semantics
    (negative wraps, out of range raises) like every other core path."""
    if local.size and (local.min() < -nmem or local.max() >= nmem):
        raise IndexError("tuple index out of range")
    return local % nmem


def _list_template(results: list) -> tuple[list, list | None]:
    """``results`` with its (at most one, shared) list result swapped
    for a private copy that receivers can never scribble on."""
    shared = next((x for x in results if type(x) is list), None)
    if shared is None:
        return results, None
    template = list(shared)
    return [template if x is shared else x for x in results], template


#: replay plans kept per communicator; a program whose collectives
#: change every round (HPL's shrinking panel broadcasts) starts over
#: instead of growing the table with its step count
_PLAN_LIMIT = 16


class _CollRound:
    """One communicator's collective round in flight, plus replay plans.

    Collectives synchronise, so a communicator has at most one round
    pending: a member cannot post round ``k+1`` before round ``k`` --
    which needs every member -- has completed.  ``ops``/``posts`` are
    indexed by local rank.  ``plans`` maps ``id(ops[0])`` to ``(ops,
    label, cost, results, template, sizes)`` of a replayable round; a
    plan keeps its ops alive, and a hit is trusted only after every
    member's op proved identical, so a recycled ``id`` cannot mislead.
    """

    __slots__ = ("members", "nmem", "local", "ops", "posts", "count",
                 "plans")

    def __init__(self, members: tuple[int, ...]):
        self.members = members
        self.nmem = len(members)
        self.local = {g: i for i, g in enumerate(members)}
        self.ops: list = [None] * self.nmem
        self.posts = [0.0] * self.nmem
        self.count = 0
        self.plans: dict[int, tuple] = {}


class EventEngine(VmpiEngine):
    """Discrete-event core (``mode="event"``); see the module docstring."""

    mode = "event"

    def __init__(self, machine: Machine, mode: str | None = None,
                 eager_limit: int | None = None):
        super().__init__(machine, mode=mode, eager_limit=eager_limit)
        self._heap = EventHeap()
        self._node = machine.nodes_of_rank
        self._devkey = [id(d) for d in machine.devices]
        #: homogeneous jobs may pin compute times on the op itself
        self._homog = len(set(self._devkey)) == 1
        self._ck = f"_evdt{next(_CACHE_KEYS)}"
        self._p2p_cache: dict[tuple[int, int], tuple[float, float]] = {}
        self._compute_cache: dict[tuple, float] = {}
        self._cost_cache: dict[tuple, float] = {}
        self._node_sets: dict[int, tuple[int, ...]] = {}
        #: comm -> the collective round in flight and its replay plans
        self._cst: dict[int, _CollRound] = {}
        #: (comm, poster, partner, tag) -> a symmetric Sendrecv whose
        #: partner has not arrived yet (no Requests allocated so far)
        self._srwait: dict[tuple[int, int, int, int], Sendrecv] = {}
        #: (comm, tag) -> [next round per rank, {round: {rank: op}},
        #: members] -- the buffered-round state of the vectorized path
        self._xst: dict[tuple[int, int], list] = {}
        #: (comm, tag) -> cached round plan
        self._xplans: dict[tuple[int, int], _XchgPlan] = {}

    # -- scheduling -----------------------------------------------------------

    def _wake(self, r: int) -> None:
        self._heap.push(self.clocks[r], r)

    def _loop(self) -> None:
        # Pops straight off the EventHeap's underlying list: this loop
        # runs once per rank resumption, so the method hop matters.
        heap = self._heap._heap
        step = self._step_rank
        while heap:
            step(heappop(heap)[2])

    def _quiesce(self) -> bool:
        """Lower stalled buffered state onto the generic per-edge path.

        Runs when the heap is dry but ranks are unfinished: every
        buffered exchange round -- fillable or not -- and every
        unpartnered Sendrecv is lowered onto per-edge FIFO matching,
        completing whatever has a counterpart.  Progress may post fresh
        ops, so the run loop calls this until it returns False.
        """
        stalled = []
        for (cid, tag), st in self._xst.items():
            for rnd, pend in st[1].items():
                stalled.append(((cid, tag, rnd), pend))
            st[1] = {}
        unpartnered = sorted(self._srwait)
        if not stalled and not unpartnered:
            return False
        stalled.sort(key=lambda e: e[0])
        for key, pend in stalled:
            for r in sorted(pend):
                if self._decompose_exchange(r, pend[r], key):
                    self._wake(r)
        for key in unpartnered:
            self._lower_sendrecv(key)
        return True

    # -- cached cost queries ---------------------------------------------------

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

    def _compute_seconds(self, r: int, flops: float, bytes_moved: float,
                         efficiency: float) -> float:
        key = (self._devkey[r], flops, bytes_moved, efficiency)
        dt = self._compute_cache.get(key)
        if dt is None:
            dt = self.machine.compute_seconds(r, flops, bytes_moved,
                                              efficiency)
            self._compute_cache[key] = dt
        return dt

    def _price(self, r: int, op: Compute) -> float:
        """First pricing of a Compute on this engine (pins homogeneous)."""
        dt = self._compute_seconds(r, op.flops, op.bytes_moved, op.efficiency)
        if self._homog:
            object.__setattr__(op, self._ck, dt)
        return dt

    def _collective_cost(self, members: tuple[int, ...],
                         ops: list[Collective]) -> float:
        first = ops[0]
        arg = collective_arg_bytes(ops)
        key = (first.comm_id, first.kind, arg)
        cost = self._cost_cache.get(key)
        if cost is None:
            node_set = self._node_sets.get(first.comm_id)
            if node_set is None:
                node_set = self.machine.node_set(members)
                self._node_sets[first.comm_id] = node_set
            cost = collective_cost(self.machine.network, node_set,
                                   len(members), first.kind, arg)
            self._cost_cache[key] = cost
        return cost

    # -- hot-path dispatch -----------------------------------------------------
    # These overrides change no semantics: they produce the identical
    # floats through per-op caches (first use goes through the shared
    # machinery, later uses replay the stored value bit for bit).

    def _step_rank(self, r: int) -> None:
        if self._finished[r]:
            return
        batch = self._batch.get(r)
        if batch is not None and not self._advance_batch(r, batch):
            return
        send = self._gens[r].send
        resume = self._resume
        ck = self._ck
        clocks = self.clocks
        trace = self.traces[r]
        compute = trace.compute
        value = resume[r]
        resume[r] = None
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                self._finished[r] = True
                self._values[r] = stop.value
                return
            except VmpiError:
                raise
            except BaseException as exc:
                raise RankFailedError(r, exc) from exc
            kind = type(op)
            if kind is Compute:
                # Op-pinned time first: a persistent descriptor is
                # priced once per run, not once per step.
                dt = op.__dict__.get(ck)
                if dt is None:
                    dt = self._price(r, op)
                trace.ops += 1
                clocks[r] += dt
                compute[op.label] += dt
                value = None
                continue
            if kind is tuple:
                batch = [op, 0, [None] * len(op), False]
                self._batch[r] = batch
                if not self._advance_batch(r, batch):
                    return
            elif not self._dispatch(r, op):
                return  # blocked; resumes later via _wake
            value = resume[r]
            resume[r] = None

    def _dispatch(self, r: int, op) -> bool:
        kind = type(op)
        if kind is Exchange:
            self.traces[r].ops += 1
            return self._post_exchange(r, op)
        if kind is Collective:
            self.traces[r].ops += 1
            return self._post_collective(r, op)
        if kind is Sendrecv:
            self.traces[r].ops += 1
            return self._post_sendrecv(r, op)
        return super()._dispatch(r, op)

    def _advance_batch(self, r: int, batch: list) -> bool:
        ops, results = batch[0], batch[2]
        resume = self._resume
        if batch[3]:  # a blocked element just resumed
            results[batch[1] - 1] = resume[r]
            resume[r] = None
            batch[3] = False
        n = len(ops)
        i = batch[1]
        ck = self._ck
        clocks = self.clocks
        trace = self.traces[r]
        compute = trace.compute
        while i < n:
            op = ops[i]
            i += 1
            kind = type(op)
            if kind is Compute:
                # Completed Computes leave no resume value, so the
                # pre-filled None already stands.
                dt = op.__dict__.get(ck)
                if dt is None:
                    dt = self._price(r, op)
                trace.ops += 1
                clocks[r] += dt
                compute[op.label] += dt
                continue
            batch[1] = i
            if kind is tuple:
                raise VmpiError(f"rank {r} yielded a nested op batch")
            if self._dispatch(r, op):
                results[i - 1] = resume[r]
                resume[r] = None
                continue
            batch[3] = True
            return False
        del self._batch[r]
        resume[r] = results
        return True

    # -- collective rounds -----------------------------------------------------

    def _post_collective(self, r: int, op: Collective) -> bool:
        cid = op.comm_id
        st = self._cst.get(cid)
        if st is None:
            members = self._comms.get(cid)
            if members is None:
                raise VmpiError(f"unknown communicator id {cid}")
            st = self._cst[cid] = _CollRound(members)
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

    def _complete_collective(self, st: _CollRound, caller: int) -> None:
        """Finish a fully-posted round, replaying its plan when the
        members posted the very ops the plan was made from."""
        ops, posts, members = st.ops, st.posts, st.members
        st.ops = [None] * st.nmem
        st.count = 0
        plan = st.plans.get(id(ops[0]))
        if plan is not None and all(map(is_, ops, plan[0])):
            _, label, cost, results, template, sizes = plan
            if template is not None:
                # one new list per round, aliased among its receivers --
                # exactly what a freshly computed round hands out
                fresh = list(template)
                results = [fresh if x is template else x for x in results]
        else:
            validate_collective(ops)
            results = collective_results(members, ops, self._do_split)
            cost = self._collective_cost(members, ops)
            first = ops[0]
            label = first.label or first.kind
            sizes = [nbytes_of(o.payload) for o in ops]
            # Only size-only rounds may be replayed: a real payload can
            # change under an unchanged op, and a split allocates.
            if first.kind != "split" and all(
                    o.payload is None or type(o.payload) is Phantom
                    for o in ops):
                if len(st.plans) >= _PLAN_LIMIT:
                    st.plans.clear()
                st.plans[id(first)] = (ops, label, cost,
                                       *_list_template(results), sizes)
        done = max(posts) + cost
        clocks, traces, resume = self.clocks, self.traces, self._resume
        push = self._heap.push
        for i, g in enumerate(members):
            waited = done - posts[i]
            clocks[g] = done
            trace = traces[g]
            trace.comm[label] += waited if waited > 0.0 else 0.0
            trace.bytes_sent += sizes[i]
            resume[g] = results[i]
            if g != caller:
                push(done, g)

    def _pending_collectives(self):
        for cid in sorted(self._cst):
            st = self._cst[cid]
            if st.count:
                yield [(i, op) for i, op in enumerate(st.ops)
                       if op is not None]

    # -- paired sendrecv -------------------------------------------------------

    def _post_sendrecv(self, r: int, op: Sendrecv) -> bool:
        """A Sendrecv; symmetric pairs complete in closed form.

        When both partners name each other as destination *and* source
        on a channel with nothing else queued, the pair is the whole
        story of that channel: the first arrival parks its op (no
        Requests, no wait group) and the second completes both ranks
        with the same rendezvous/eager algebra the per-request path
        applies.  Anything else touching the channel first lowers the
        parked op onto that path (:meth:`_lower_sendrecv`), so FIFO
        matching is exactly preserved.
        """
        cid, tag = op.comm_id, op.tag
        dest = self._global(cid, op.dest)
        if dest == self._global(cid, op.source) and dest != r:
            parked = self._srwait
            rev = (cid, dest, r, tag)
            first = parked.pop(rev, None)
            if first is not None:
                self._pair_sendrecv(dest, first, r, op)
                return True
            fwd = (cid, r, dest, tag)
            sends, recvs = self._sends, self._recvs
            if not (sends.get(fwd) or recvs.get(fwd)
                    or sends.get(rev) or recvs.get(rev)):
                parked[fwd] = op
                return False
        sreq = self._post_send(r, op.dest, op.payload, tag, cid)
        rreq = self._post_recv(r, op.source, tag, cid)
        return self._wait_on(r, (sreq, rreq), single=False, sendrecv=True)

    def _pair_sendrecv(self, a: int, aop: Sendrecv, b: int,
                       bop: Sendrecv) -> None:
        """Complete ``a`` (parked, woken here) and ``b`` (the caller)."""
        clocks, traces = self.clocks, self.traces
        ta, tb = clocks[a], clocks[b]
        na, nb = nbytes_of(aop.payload), nbytes_of(bop.payload)
        # Bytes are accounted in each rank's own program order; ``a``
        # posted nothing since it parked, so adding its bytes now is the
        # same per-rank float sequence as adding them at post time.
        traces[a].bytes_sent += na
        traces[b].bytes_sent += nb
        t_ab = self._p2p_seconds(a, b, na)
        t_ba = self._p2p_seconds(b, a, nb)
        start = max(ta, tb)
        done_ab = start + t_ab
        done_ba = start + t_ba
        limit = self.eager_limit
        for g, post, sent, received, payload in (
                (a, ta, ta + t_ab if na <= limit else done_ab, done_ba,
                 bop.payload),
                (b, tb, tb + t_ba if nb <= limit else done_ba, done_ab,
                 aop.payload)):
            done = max(sent, received)
            traces[g].comm["p2p"] += max(0.0, done - post)
            clocks[g] = max(post, done)
            self._resume[g] = payload
        self._wake(a)

    def _lower_sendrecv(self, key: tuple[int, int, int, int]) -> None:
        """Hand a parked Sendrecv to the per-request machinery."""
        op = self._srwait.pop(key, None)
        if op is None:
            return
        a = key[1]
        sreq = VmpiEngine._post_send(self, a, op.dest, op.payload, op.tag,
                                     op.comm_id)
        rreq = VmpiEngine._post_recv(self, a, op.source, op.tag, op.comm_id)
        if self._wait_on(a, (sreq, rreq), single=False, sendrecv=True):
            self._wake(a)

    def _post_send(self, r: int, dest_local: int, payload, tag: int,
                   comm_id: int):
        if self._srwait:
            self._lower_sendrecv(
                (comm_id, self._global(comm_id, dest_local), r, tag))
        return super()._post_send(r, dest_local, payload, tag, comm_id)

    def _post_recv(self, r: int, source_local: int, tag: int, comm_id: int):
        if self._srwait:
            self._lower_sendrecv(
                (comm_id, self._global(comm_id, source_local), r, tag))
        return super()._post_recv(r, source_local, tag, comm_id)

    # -- vectorized exchange rounds --------------------------------------------

    def _post_exchange(self, r: int, op: Exchange) -> bool:
        sk = (op.comm_id, op.tag)
        st = self._xst.get(sk)
        if st is None:
            members = self._comms.get(op.comm_id)
            if members is None:
                raise VmpiError(f"unknown communicator id {op.comm_id}")
            st = self._xst[sk] = [defaultdict(int), {}, members, len(members)]
        seq, rounds, members, nmem = st
        rnd = seq[r]
        seq[r] = rnd + 1
        nb = op.__dict__.get("_nbytes_total")
        if nb is None:
            nb = _exchange_bytes(op)
        self.traces[r].bytes_sent += nb
        try:
            pend = rounds[rnd]
        except KeyError:
            pend = rounds[rnd] = {}
        pend[r] = op
        if len(pend) == nmem:
            del rounds[rnd]
            return self._finish_round(members, sk + (rnd,), pend, caller=r)
        # No per-rank blocked marker: buffered ranks are found through
        # ``_xst`` (and drained by ``_quiesce`` before any deadlock).
        return False

    def _finish_round(self, members: tuple[int, ...],
                      key: tuple[int, int, int],
                      pend: dict[int, Exchange], caller: int) -> bool:
        """Complete a fully-posted round; True if the caller finished."""
        plan = self._round_plan(key, members, pend)
        if plan is None:
            # Structurally inconsistent round (unpaired edges): lower it
            # onto the generic machinery, which completes what matches.
            caller_done = False
            for r in sorted(pend):
                if self._decompose_exchange(r, pend[r], key):
                    if r == caller:
                        caller_done = True
                    else:
                        self._wake(r)
            return caller_done
        clocks = self.clocks
        nmem = len(members)
        if plan.contig:
            posts = np.array(clocks[:nmem], dtype=np.float64)
        else:
            posts = np.fromiter((clocks[g] for g in members),
                                dtype=np.float64, count=nmem)
        if plan.nedges:
            sposts = posts[plan.src_idx]
            recv_done = np.maximum(sposts, posts[plan.dst_idx]) + plan.t
            send_done = np.where(plan.eager, sposts + plan.t, recv_done)
            done = posts.copy()
            np.maximum.at(done, plan.src_idx, send_done)
            np.maximum.at(done, plan.dst_idx, recv_done)
            done_list = done.tolist()
            waited_list = np.maximum(done - posts, 0.0).tolist()
        else:
            done_list = posts.tolist()
            waited_list = [0.0] * nmem
        traces = self.traces
        resume = self._resume
        batches = self._batch
        labels = plan.labels
        results = plan.results
        push = self._heap.push
        for i, g in enumerate(members):
            d = done_list[i]
            clocks[g] = d
            traces[g].comm[labels[i]] += waited_list[i]
            if g != caller:
                # If the member blocked on this exchange as the last op
                # of a batch, complete the batch here: on wake the rank
                # resumes straight into its generator.
                b = batches.get(g)
                if b is not None and b[3] and b[1] == len(b[0]):
                    b[2][b[1] - 1] = list(results[i])
                    del batches[g]
                    resume[g] = b[2]
                else:
                    resume[g] = list(results[i])
                push(d, g)
            else:
                resume[g] = list(results[i])
        return True

    def _round_plan(self, key: tuple[int, int, int],
                    members: tuple[int, ...],
                    pend: dict[int, Exchange]) -> _XchgPlan | None:
        pkey = key[:2]
        cached = self._xplans.get(pkey)
        if cached is not None and \
                all(map(is_, map(pend.__getitem__, members), cached.op_ids)):
            return cached
        plan = self._build_plan(members, pend)
        if plan is not None:
            self._xplans[pkey] = plan
        else:
            self._xplans.pop(pkey, None)
        return plan

    def _build_plan(self, members: tuple[int, ...],
                    pend: dict[int, Exchange]) -> _XchgPlan | None:
        """Pair every edge of a round; None if the structure is unpaired.

        Pairing replicates per-edge FIFO order: the k-th send of a round
        on a directed pair matches the k-th receive, both in op order.
        All edges of all members are flattened once and paired by one
        stable sort per side on the ``(sender, receiver)`` key, so the
        cold build costs array passes, not per-edge dict traffic; edge
        order in the plan is immaterial (completion is a max-reduction).
        """
        nmem = len(members)
        ops = [pend[g] for g in members]
        flat_sends = list(itertools.chain.from_iterable(o.sends for o in ops))
        flat_recvs = list(itertools.chain.from_iterable(o.recvs for o in ops))
        nsends = np.fromiter((len(o.sends) for o in ops), np.intp, nmem)
        nrecvs = np.fromiter((len(o.recvs) for o in ops), np.intp, nmem)
        nedges = len(flat_sends)
        payloads = list(map(itemgetter(1), flat_sends))
        idx = np.arange(nmem)
        send_src = np.repeat(idx, nsends)
        send_dst = _member_index(
            np.fromiter(map(itemgetter(0), flat_sends), np.intp, nedges), nmem)
        recv_dst = np.repeat(idx, nrecvs)
        recv_src = _member_index(
            np.array(flat_recvs, dtype=np.intp), nmem)
        if nedges != len(flat_recvs):
            return None
        by_send = np.argsort(send_src * nmem + send_dst, kind="stable")
        by_recv = np.argsort(recv_src * nmem + recv_dst, kind="stable")
        src_idx = send_src[by_send]
        dst_idx = send_dst[by_send]
        if not (np.array_equal(src_idx, recv_src[by_recv])
                and np.array_equal(dst_idx, recv_dst[by_recv])):
            return None
        sizes = np.fromiter(map(nbytes_of, payloads), np.float64,
                            nedges)[by_send]
        # flat receive slots are laid out member by member in recvs
        # order, so filling them and slicing gives each member's results
        slots: list = [None] * nedges
        for k_recv, k_send in zip(by_recv.tolist(), by_send.tolist()):
            slots[k_recv] = payloads[k_send]
        bounds = np.concatenate(([0], np.cumsum(nrecvs))).tolist()
        return _XchgPlan(
            op_ids=tuple(ops),
            nedges=nedges,
            src_idx=src_idx,
            dst_idx=dst_idx,
            t=self._edge_seconds(members, src_idx, dst_idx, sizes),
            eager=sizes <= self.eager_limit,
            labels=tuple(o.label for o in ops),
            results=tuple(slots[lo:hi]
                          for lo, hi in zip(bounds, bounds[1:])),
            contig=members[0] == 0 and members[-1] == nmem - 1,
        )

    def _edge_seconds(self, members: tuple[int, ...], src_idx: np.ndarray,
                      dst_idx: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Per-edge ``alpha + n/beta``: :meth:`_p2p_seconds`, vectorized
        (one model query per distinct node pair, same IEEE operations)."""
        nodes = self._node
        node_of = np.fromiter((nodes[g] for g in members), np.intp,
                              len(members))
        src_node, dst_node = node_of[src_idx], node_of[dst_idx]
        span = int(node_of.max()) + 1
        pairs, which = np.unique(src_node * span + dst_node,
                                 return_inverse=True)
        params = np.array([self._p2p_params(divmod(code, span))
                           for code in pairs.tolist()],
                          dtype=np.float64).reshape(-1, 2)
        t = params[which, 0] + sizes / params[which, 1]
        t[(src_node == dst_node) & (sizes == 0)] = 0.0
        return t

    # -- failure reporting -----------------------------------------------------

    def _blocked_detail(self, r: int) -> str:
        if self._blocked.get(r) is None:
            # Buffered exchange rounds carry no per-rank marker; find
            # the rank in the round state instead.
            for (cid, _tag), st in sorted(self._xst.items()):
                for _rnd, pend in sorted(st[1].items()):
                    if r in pend:
                        return (f"exchange on comm {cid} "
                                f"({len(pend)}/{len(st[2])} ranks arrived)")
            for cid, cst in sorted(self._cst.items()):
                local = cst.local.get(r)
                op = None if local is None else cst.ops[local]
                if op is not None:
                    return (f"collective {op.kind!r} on comm {cid} "
                            f"({cst.count}/{cst.nmem} ranks arrived)")
        return super()._blocked_detail(r)
