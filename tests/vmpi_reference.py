"""The reference step scheduler: the oracle the vmpi engine is tested against.

:class:`ReferenceEngine` executes a rank program the slow, obvious way:
a FIFO ready deque drives each rank until it blocks, a job program runs
as the per-rank programs it stands for, every op asks the machine model
for its cost again, every ``Sendrecv`` becomes per-edge requests, and
collectives wait in a per-``(comm, sequence)`` table.  It keeps no heap,
cache, plan or parked op.  What it shares with
:class:`~repro.vmpi.engine.VmpiEngine` is the per-request machinery that
defines the semantics (FIFO channels, ``Request``, wait groups, the
per-edge lowering of an ``Exchange``, eager/rendezvous timing,
:mod:`repro.vmpi.collectives`) and the deadlock reporter; everything
it overrides is something production does a faster way, and the
differential suites assert the two agree byte for byte.  Test-only:
nothing under ``src/`` imports this module.
"""

from collections import defaultdict, deque

from repro.vmpi.collectives import (
    RankFailedError,
    VmpiError,
    collective_arg_bytes,
    collective_cost,
    collective_results,
    validate_collective,
)
from repro.vmpi.engine import VmpiEngine
from repro.vmpi.ops import Compute, nbytes_of


class ReferenceEngine(VmpiEngine):
    def __init__(self, machine, eager_limit=None):
        super().__init__(machine, eager_limit=eager_limit)
        self._ready = deque()
        self._batch = {}          # rank -> [ops, idx, results, waiting]
        self._coll_seq = defaultdict(int)    # (comm, rank) -> next sequence
        self._coll_pending = {}   # (comm, seq) -> {local: (op, post time)}

    # -- scheduling: FIFO polling ----------------------------------------------

    def _wake(self, r):
        self._ready.append(r)

    def _loop(self):
        while self._ready:
            self._step_rank(self._ready.popleft())

    def _step_rank(self, r):
        if self._finished[r]:
            return
        batch = self._batch.get(r)
        if batch is not None and not self._advance_batch(r, batch):
            return
        while True:
            value, self._resume[r] = self._resume[r], None
            try:
                op = self._gens[r].send(value)
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

    def _advance_batch(self, r, batch):
        ops, results = batch[0], batch[2]
        if batch[3]:  # a blocked element just resumed
            results[batch[1] - 1] = self._resume[r]
            self._resume[r] = None
            batch[3] = False
        while batch[1] < len(ops):
            i = batch[1]
            batch[1] = i + 1
            if type(ops[i]) is tuple:
                raise VmpiError(f"rank {r} yielded a nested op batch")
            if not self._dispatch(r, ops[i]):
                batch[3] = True
                return False
            results[i] = self._resume[r]
            self._resume[r] = None
        del self._batch[r]
        self._resume[r] = results
        return True

    # -- job programs: lowered onto the rank programs they stand for -----------

    def _job_plans(self, phases, slots):
        return None

    # -- costs: ask the machine model every time -------------------------------

    def _p2p_seconds(self, src, dst, nbytes):
        return self.machine.p2p_seconds(src, dst, nbytes)

    def _collective_cost(self, members, ops):
        return collective_cost(self.machine.network,
                               self.machine.node_set(members), len(members),
                               ops[0].kind, collective_arg_bytes(ops))

    # -- per-op paths: everything through requests -----------------------------

    def _dispatch(self, r, op):
        if type(op) is not Compute:
            return super()._dispatch(r, op)
        dt = self.machine.compute_seconds(r, op.flops, op.bytes_moved,
                                          op.efficiency)
        self.traces[r].ops += 1
        self.clocks[r] += dt
        self.traces[r].compute[op.label] += dt
        return True

    def _post_collective(self, r, op):
        members = self._comms.get(op.comm_id)
        if members is None:
            raise VmpiError(f"unknown communicator id {op.comm_id}")
        if r not in members:
            raise VmpiError(f"rank {r} is not a member of comm {op.comm_id}")
        seq = self._coll_seq[(op.comm_id, r)]
        self._coll_seq[(op.comm_id, r)] = seq + 1
        key = (op.comm_id, seq)
        pending = self._coll_pending.setdefault(key, {})
        pending[members.index(r)] = (op, self.clocks[r])
        if len(pending) < len(members):
            self._blocked[r] = (op, key)
            return False
        del self._coll_pending[key]
        ops = [pending[i][0] for i in range(len(members))]
        validate_collective(ops)
        results = collective_results(members, ops, self._do_split)
        done = max(pending[i][1] for i in range(len(members))) + \
            self._collective_cost(members, ops)
        for i, g in enumerate(members):
            self.traces[g].comm[ops[0].label or ops[0].kind] += \
                max(0.0, done - self.clocks[g])
            self.traces[g].bytes_sent += nbytes_of(ops[i].payload)
            self.clocks[g] = done
            self._resume[g] = results[i]
            if g != r:
                del self._blocked[g]
                self._wake(g)
        return True

    # -- failure reporting ------------------------------------------------------

    def _pending_collectives(self):
        for key in sorted(self._coll_pending):
            yield [(local, op) for local, (op, _)
                   in self._coll_pending[key].items()]

    def _blocked_detail(self, r):
        marker = self._blocked.get(r)
        if not isinstance(marker, tuple):
            return super()._blocked_detail(r)
        op, key = marker
        return (f"collective {op.kind!r} on comm {op.comm_id} "
                f"({len(self._coll_pending[key])}/"
                f"{len(self._comms[op.comm_id])} ranks arrived)")


def run_reference(fn, *, machine, args=(), kwargs=None, rank_kwargs=None):
    """``run_spmd`` on the reference scheduler."""
    return ReferenceEngine(machine).run(fn, args=args, kwargs=kwargs,
                                        rank_kwargs=rank_kwargs)
