"""Column plans: a job program's ops, run for every rank at once.

A job program (:mod:`repro.vmpi.job`) hands the engine its phases as
*columns* -- position ``j`` of every rank's schedule.
:func:`plan_columns` plans each distinct column once and
:meth:`SweepPlan.run` applies it to float64 arrays indexed by global
rank (clocks, one accumulator per trace label, ``bytes_sent``).  A
column qualifies when it is

* ``Compute`` / ``Elapse`` ops of one label: ``clk += dt``, priced per
  rank, or per device for one op on every rank;
* one size-only ``Collective`` on every rank, or a collective
  :class:`~repro.vmpi.job.Column` on each rank's communicator:
  complete communicators, ``max + cost`` each, priced once each;
* a halo :class:`~repro.vmpi.job.Column`: its edges paired by
  :func:`~repro.vmpi.rounds.build_plan`, timed by
  :meth:`~repro.vmpi.rounds.XchgPlan.complete`;
* size-only ``Sendrecv`` ops or a ring column forming a perfect
  matching -- ``max(sent, received)``, eager sends local.

Each array element sees exactly the IEEE operations, in program order,
that the per-rank path applies to that rank's scalars, so clocks and
traces are byte identical (DESIGN.md section 10).  Whatever does not
qualify makes :func:`plan_columns` return ``None``, and the job runs on
the per-rank path, which alone defines the semantics and the errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .collectives import VmpiError, collective_arg_bytes, collective_results
from .job import Column
from .ops import Collective, Compute, Elapse, Op, Phantom, Sendrecv, nbytes_of
from .rounds import edge_seconds

__all__ = ["SweepPlan", "plan_columns"]

_LOCAL, _COLL, _XCHG, _SRECV = range(4)


@dataclass
class SweepPlan:
    """The planned columns of one phase of a job program."""

    columns: list[tuple]     # one per position; identical ones shared

    def run(self, clk: np.ndarray, acc: list[np.ndarray],
            sent: np.ndarray) -> None:
        """Advance clocks, label accumulators and byte counters in place."""
        for col in self.columns:
            kind, bucket = col[0], acc[col[1]]
            if kind == _LOCAL:
                clk += col[2]
                bucket += col[2]
                continue
            if kind == _COLL:
                _, _, perm, starts, group, cost, nbytes = col
                posts = clk if perm is None else clk[perm]
                done = (np.maximum.reduceat(posts, starts) + cost)[group]
            elif kind == _XCHG:
                _, _, xplan, nbytes = col
                done = xplan.complete(clk)[0]
            else:
                _, _, dst, src, t, eager, nbytes = col
                matched = np.maximum(clk, clk[dst]) + t
                done = np.maximum(np.where(eager, clk + t, matched),
                                  matched[src])
            waited = done - clk
            np.maximum(clk, done, out=clk)
            bucket += np.maximum(waited, 0.0)
            sent += nbytes


def plan_columns(eng: Any, columns: list, slots: dict) -> SweepPlan | None:
    """Plan each distinct column (by identity) once, or None.  An
    :class:`~repro.vmpi.ops.Op` column is that op on every rank."""
    n = len(eng.clocks)
    planned: dict[int, tuple | None] = {}
    cols = []
    try:
        for ops in columns:
            if id(ops) not in planned:
                planned[id(ops)] = _plan_column(
                    eng, (ops,) * n if isinstance(ops, Op) else ops, slots)
            if planned[id(ops)] is None:
                return None
            cols.append(planned[id(ops)])
    except (VmpiError, LookupError, TypeError, ValueError):
        # unknown comm or peer, unsizable or unreducible payload: the
        # per-rank path reports it where (and as what) it happens
        return None
    return SweepPlan(cols)


def _plan_column(eng: Any, ops: Any, slots: dict) -> tuple | None:
    """The planned column of one position (an op per rank, or a
    :class:`~repro.vmpi.job.Column`), or None."""
    if isinstance(ops, Column):
        slot = slots.setdefault(("comm", ops.label), len(slots))
        if ops.kind == "halo":
            return _plan_halo(eng, slot, *ops.data)
        if ops.kind == "sendrecv":
            return _plan_sendrecv(eng, slot, *ops.data)
        kind, (comm, nbytes) = ops.kind, ops.data
        return _plan_collective(eng, slot, kind, comm, nbytes,
                                lambda mine: _arg_bytes(kind, nbytes[mine]))
    n = len(ops)
    first = ops[0]
    kind = type(first)
    # one op everywhere is checked once (a Sendrecv column is per rank)
    one = kind is not Sendrecv and ops.count(first) == n
    each = (first,) if one else ops
    if kind not in (Compute, Elapse, Collective, Sendrecv) or \
            any(type(o) is not kind for o in each):
        return None
    # the label the per-rank path books the op under
    if kind is Collective:
        label = first.label or first.kind
        same = one                      # a tuple of collectives lowers
    else:
        label = "p2p" if kind is Sendrecv else first.label
        same = kind is Sendrecv or all(o.label == label for o in each)
    sized = kind is Sendrecv or (kind is Collective and first.kind != "split")
    if not same or (sized and not all(
            o.payload is None or type(o.payload) is Phantom for o in each)):
        return None
    local = kind is Compute or kind is Elapse
    slot = slots.setdefault(("compute" if local else "comm", label),
                            len(slots))
    comms = eng._comms
    if kind is Compute:
        dev = eng._devkey
        if one:                     # priced per device
            dt = {k: eng._price(dev.index(k), first)
                  for k in dict.fromkeys(dev)}
            return _LOCAL, slot, np.array(list(map(dt.__getitem__, dev)))
        return _LOCAL, slot, np.array(
            [eng._price(r, o) for r, o in enumerate(ops)])
    if kind is Elapse:
        return _LOCAL, slot, np.array([o.seconds for o in ops])
    if kind is Sendrecv:
        dst = [comms[o.comm_id][o.dest] for o in ops]
        keys = [(o.comm_id, o.tag) for o in ops]
        if any(keys[d] != keys[r] for r, d in enumerate(dst)):
            return None     # sender and receiver on different (comm, tag)
        return _plan_sendrecv(
            eng, slot, np.array(dst),
            np.array([comms[o.comm_id][o.source] for o in ops]),
            np.array([nbytes_of(o.payload) for o in ops]))
    # one collective on every rank: what the per-rank path would hand
    # out must be computable (a split's communicators are the job
    # program's to allocate)
    collective_results(comms[first.comm_id], list(ops),
                       lambda m, _p: [None] * len(m))
    return _plan_collective(eng, slot, first.kind, np.full(n, first.comm_id),
                            np.full(n, nbytes_of(first.payload)),
                            lambda _: collective_arg_bytes(list(ops)))


def _arg_bytes(kind: str, nbytes: np.ndarray) -> float:
    """``collective_arg_bytes`` of one communicator's column: nothing
    for a split, the biggest size for an allreduce, its share per
    member for a personalised alltoall."""
    if kind == "split":
        return 0.0
    biggest = float(nbytes.max())
    return biggest / len(nbytes) if kind == "alltoall" else biggest


def _plan_collective(eng: Any, slot: int, kind: str, comm: np.ndarray,
                     nbytes: np.ndarray, arg: Callable) -> tuple | None:
    """Ranks grouped by their communicator ``comm[r]`` (one stable
    argsort), each a complete communicator priced once on ``arg``."""
    order = np.argsort(comm, kind="stable")
    cids, starts = np.unique(comm[order], return_index=True)
    costs = []
    for cid, mine in zip(cids.tolist(), np.split(order, starts[1:])):
        members = eng._comms[cid]
        if sorted(members) != mine.tolist():
            return None     # someone posted on a communicator it is not in
        costs.append(eng._cost(cid, members, kind, arg(mine)))
    return (_COLL, slot,
            None if np.array_equal(order, np.arange(len(comm))) else order,
            starts, np.searchsorted(cids, comm), np.array(costs), nbytes)


def _plan_sendrecv(eng: Any, slot: int, dst: np.ndarray, src: np.ndarray,
                   nbytes: np.ndarray) -> tuple | None:
    """Each rank's sendrecv to global rank ``dst[r]`` from ``src[r]``."""
    n = len(dst)
    if dst.min() < 0 or not np.array_equal(src[dst], np.arange(n)):
        return None     # a rank posts nothing, or not a perfect matching
    t = edge_seconds(np.array(eng._node), np.arange(n), dst, nbytes,
                     eng._p2p_params)
    return _SRECV, slot, dst, src, t, nbytes <= eng.eager_limit, nbytes


def _plan_halo(eng: Any, slot: int, peers: np.ndarray,
               payloads: list) -> tuple | None:
    """A halo table as one round on the world: its edges paired and
    priced by the engine, bytes per rank summed in sorted face order
    (``exchange_bytes``' left fold)."""
    has = peers >= 0
    if not has.any(axis=0).all():
        return None         # a rank without neighbours posts nothing
    sizes = np.array([nbytes_of(p) for p in payloads], dtype=np.float64)
    face, src = np.nonzero(has)
    dst = peers[face, src]
    xplan = eng._edge_plan(eng._comms[0], (src, dst, sizes[face], dst, src))
    nbytes = np.zeros(peers.shape[1])
    for on, size in zip(has, sizes.tolist()):
        nbytes = nbytes + np.where(on, size, 0.0)
    return None if xplan is None else (_XCHG, slot, xplan, nbytes)
