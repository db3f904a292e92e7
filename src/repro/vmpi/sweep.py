"""Column plans: a job program's ops, run for every rank at once.

A job program (:mod:`repro.vmpi.job`) hands the engine its phases as
*columns* -- position ``j`` of every rank's schedule.
:func:`plan_columns` plans each distinct column once and
:meth:`SweepPlan.run` applies it to float64 arrays indexed by global
rank (clocks, one accumulator per trace label, ``bytes_sent``).  A
column qualifies when all its ops have one type and one trace label and
are

* ``Compute`` / ``Elapse``: ``clk += dt``, priced per rank, or per
  device for one op on every rank (a heterogeneous machine is just a
  non-constant vector);
* ``Collective``: size-only (or a ``split``), over any partition of the
  job into *complete* communicators -- ``max + cost`` per group;
* ``Exchange``: complete ``(comm, tag)`` groups, paired by
  :func:`~repro.vmpi.rounds.build_plan` and timed by
  :meth:`~repro.vmpi.rounds.XchgPlan.complete`;
* ``Sendrecv``: size-only, sends and receives forming a perfect
  matching (pairs, rings, any permutation) -- ``max(sent, received)``
  with the eager/rendezvous split of the per-request path.

Each array element sees exactly the IEEE operations, in program order,
that the per-rank path applies to that rank's scalars -- validation and
costs come from :mod:`~repro.vmpi.collectives` and the same network
closed forms -- so clocks and traces are byte identical (DESIGN.md
section 10).  Whatever does not qualify makes :func:`plan_columns`
return ``None`` and the engine runs the job rank by rank on the
per-rank path, which alone defines the semantics and raises the errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .collectives import VmpiError, collective_results, validate_collective
from .ops import (
    Collective,
    Compute,
    Elapse,
    Exchange,
    Op,
    Phantom,
    Sendrecv,
    nbytes_of,
)
from .rounds import edge_seconds, exchange_bytes

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
                waited = done - clk
                clk[:] = done
            elif kind == _XCHG:
                _, _, groups, nbytes = col
                waited = np.empty_like(clk)
                for idx, xplan in groups:
                    done, waited[idx] = xplan.complete(clk[idx])
                    clk[idx] = done
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
        # mismatched collective, unknown comm or peer, unsizable payload:
        # the per-rank path reports it where (and as what) it happens
        return None
    return SweepPlan(cols)


def _plan_column(eng: Any, ops: tuple, slots: dict) -> tuple | None:
    """The planned column of one position (an op per rank), or None."""
    n = len(ops)
    first = ops[0]
    kind = type(first)
    if kind not in (Compute, Elapse, Collective, Exchange, Sendrecv) or \
            any(type(o) is not kind for o in ops):
        return None
    # the label the per-rank path books the op under
    if kind is Collective:
        label = first.label or first.kind
        same = all((o.label or o.kind) == label for o in ops)
    else:
        label = "p2p" if kind is Sendrecv else first.label
        same = kind is Sendrecv or all(o.label == label for o in ops)
    sized = kind is Sendrecv or (kind is Collective and first.kind != "split")
    if not same or (sized and not all(
            o.payload is None or type(o.payload) is Phantom for o in ops)):
        return None
    local = kind is Compute or kind is Elapse
    slot = slots.setdefault(("compute" if local else "comm", label),
                            len(slots))
    comms = eng._comms
    if kind is Compute:
        dev = eng._devkey
        if ops.count(first) == n:   # one op everywhere: priced per device
            dt = {k: eng._price(dev.index(k), first)
                  for k in dict.fromkeys(dev)}
            return _LOCAL, slot, np.array(list(map(dt.__getitem__, dev)))
        return _LOCAL, slot, np.array(
            [eng._price(r, o) for r, o in enumerate(ops)])
    if kind is Elapse:
        return _LOCAL, slot, np.array([o.seconds for o in ops])
    if kind is Sendrecv:
        dst = [comms[o.comm_id][o.dest] for o in ops]
        src = [comms[o.comm_id][o.source] for o in ops]
        if any(src[d] != r or (ops[d].comm_id, ops[d].tag) !=
               (ops[r].comm_id, ops[r].tag) for r, d in enumerate(dst)):
            return None     # not a perfect matching
        nbytes = np.array([nbytes_of(o.payload) for o in ops])
        t = edge_seconds(np.array(eng._node), np.arange(n), np.array(dst),
                         nbytes, eng._p2p_params)
        return (_SRECV, slot, np.array(dst), np.array(src), t,
                nbytes <= eng.eager_limit, nbytes)
    # Collective / Exchange: the groups must partition the job into
    # complete communicators
    keys = [(o.comm_id, o.tag) if kind is Exchange else (o.comm_id,)
            for o in ops]
    order: list[int] = []
    groups = []
    for key in dict.fromkeys(keys):
        members = comms[key[0]]
        if any(keys[g] != key for g in members):
            return None
        mine = [ops[g] for g in members]
        if kind is Exchange:
            xplan = eng._round_plan(key, members, dict(zip(members, mine)))
            if xplan is None:
                return None
            groups.append((slice(None) if members == comms[0]
                           else np.array(members), xplan))
        else:
            validate_collective(mine)
            # what the per-rank path would hand out must be computable
            # (a split's communicators are the job program's to allocate)
            collective_results(members, mine, lambda m, _p: [None] * len(m))
            groups.append((len(order), eng._collective_cost(members, mine)))
        order.extend(members)
    if len(order) != n:
        return None         # someone posted on a communicator it is not in
    if kind is Exchange:
        return (_XCHG, slot, groups,
                np.array([exchange_bytes(o) for o in ops]))
    starts = [g[0] for g in groups]
    group = np.empty(n, dtype=np.intp)
    group[order] = np.repeat(np.arange(len(groups)), np.diff(starts + [n]))
    return (_COLL, slot, None if order == list(range(n)) else np.array(order),
            np.array(starts), group, np.array([g[1] for g in groups]),
            np.array([nbytes_of(o.payload) for o in ops]))
