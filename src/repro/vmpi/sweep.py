"""Column sweeps: every rank's op batch, executed in lockstep.

When every rank of a job stands at the head of a tuple batch, the
engine (:mod:`repro.vmpi.engine`) stops driving ranks one op at a time:
:func:`plan_sweep` reads the batches *column by column* -- position
``j`` of every rank's tuple -- and :meth:`SweepPlan.run` applies each
column to float64 arrays indexed by global rank (clocks, one
accumulator per trace label, ``bytes_sent``).  A column qualifies when
all its ops have one type and one trace label and are

* ``Compute`` / ``Elapse``: ``clk += dt``, priced per rank, or per
  device for one op on every rank (a heterogeneous machine is just a
  non-constant vector);
* ``Collective``: size-only (or a job program's ``split``), over any
  partition of the job into *complete* communicators -- ``max + cost``
  per group;
* ``Exchange``: complete ``(comm, tag)`` groups, paired by
  :func:`~repro.vmpi.rounds.build_plan` and timed by
  :meth:`~repro.vmpi.rounds.XchgPlan.complete`;
* ``Sendrecv``: size-only, sends and receives forming a perfect
  matching (pairs, rings, any permutation) -- ``max(sent, received)``
  with the eager/rendezvous split of the per-request path.

Each array element sees exactly the IEEE operations, in program order,
that the per-rank path applies to that rank's scalars -- validation,
results and costs come from :mod:`~repro.vmpi.collectives` and the same
network closed forms -- so clocks, traces and results are byte
identical (DESIGN.md section 10).  Whatever does not qualify makes
:func:`plan_sweep` return ``None`` and the engine *lowers* the batches
onto the per-rank path, which alone defines the semantics and raises
the errors.  A job program's phases (:mod:`repro.vmpi.job`) are columns
from the start: :func:`plan_columns` plans them without any batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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

__all__ = ["SweepPlan", "plan_columns", "plan_sweep"]

_LOCAL, _COLL, _XCHG, _SRECV = range(4)


@dataclass
class SweepPlan:
    """The planned columns of one set of batches (the engine pins the
    plan on the identity of the batch tuples)."""

    nranks: int
    slots: list[tuple[str, str]]  # (trace bucket, label), first-touch order
    columns: list[tuple]     # one per batch position; identical ones shared
    results: list[tuple | None]  # per position: (pool, nlists, index) | None
    rounds: list[list]       # [exchange round state, rounds per sweep]
    p2p: bool                # has a Sendrecv column: needs idle channels

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
                for idx, xplan, _state in groups:
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

    def result_rows(self) -> list[list]:
        """A fresh result list per rank.  List results are new objects
        every sweep, aliased among the receivers of one collective
        exactly as a freshly computed round hands them out."""
        n = self.nranks
        cols = []
        for spec in self.results:
            if spec is None:            # every rank resumes with None
                cols.append(repeat(None, n))
                continue
            pool, nlists, index = spec
            if nlists:
                pool = [*map(list.copy, pool[:nlists]), *pool[nlists:]]
            cols.append(map(pool.__getitem__, index))
        return list(map(list, zip(*cols)))


def plan_sweep(eng: Any, batches: list[tuple]) -> SweepPlan | None:
    """Plan the parked batches of every rank, or None to lower them."""
    length = len(batches[0])
    if not length or any(len(b) != length for b in batches):
        return None
    columns = list(zip(*batches))
    # a split resumes with communicators, allocated as the round completes
    if any(type(c[0]) is Collective and c[0].kind == "split"
           for c in columns):
        return None
    return plan_columns(eng, columns, {}, [tuple(map(id, c)) for c in columns],
                        results=True)


def plan_columns(eng: Any, columns: list, slots: dict,
                 keys: list | None = None,
                 results: bool = False) -> SweepPlan | None:
    """Plan each distinct column once -- ``keys``, by default the column
    object's identity, say which are the same -- or None.  An
    :class:`~repro.vmpi.ops.Op` column is that op on every rank; the
    resume values are planned only if ``results``."""
    n = len(eng.clocks)
    planned: dict[Any, tuple | None] = {}
    cols, specs = [], []
    try:
        for ops, key in zip(columns, keys or map(id, columns)):
            if key not in planned:
                got = _plan_column(eng, (ops,) * n if isinstance(ops, Op)
                                   else ops, slots)
                planned[key] = got and (
                    got[0], _result_spec(got[1]) if results else None)
            if planned[key] is None:
                return None
            cols.append(planned[key][0])
            specs.append(planned[key][1])
    except (VmpiError, LookupError, TypeError, ValueError):
        # mismatched collective, unknown comm or peer, unsizable payload:
        # the per-rank path reports it where (and as what) it happens
        return None
    rounds: dict[int, list] = {}
    for col in cols:
        for _idx, _xplan, state in col[2] if col[0] == _XCHG else ():
            rounds.setdefault(id(state), [state, 0])[1] += 1
    return SweepPlan(n, list(slots), cols, specs, list(rounds.values()),
                     any(col[0] == _SRECV for col in cols))


def _result_spec(values: list | None) -> tuple | None:
    """Per-rank resume values as ``(pool, nlists, index)``: rank ``r``
    resumes with ``pool[index[r]]``, and the first ``nlists`` pool
    entries are lists (copied afresh for every sweep)."""
    if values is None or all(v is None for v in values):
        return None
    lists: dict[int, Any] = {}
    consts: dict[int, Any] = {}
    for v in values:
        (lists if type(v) is list else consts).setdefault(id(v), v)
    where = {k: i for i, k in enumerate((*lists, *consts))}
    return ([*lists.values(), *consts.values()], len(lists),
            [where[id(v)] for v in values])


def _plan_column(eng: Any, ops: tuple, slots: dict) -> tuple | None:
    """``(column, resume values or None)`` of one batch position, or
    None."""
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
            return (_LOCAL, slot, np.array(list(map(dt.__getitem__, dev)))), \
                None
        return (_LOCAL, slot, np.array(
            [eng._price(r, o) for r, o in enumerate(ops)])), None
    if kind is Elapse:
        return (_LOCAL, slot, np.array([o.seconds for o in ops])), None
    if kind is Sendrecv:
        dst = [comms[o.comm_id][o.dest] for o in ops]
        src = [comms[o.comm_id][o.source] for o in ops]
        if any(src[d] != r or (ops[d].comm_id, ops[d].tag) !=
               (ops[r].comm_id, ops[r].tag) for r, d in enumerate(dst)):
            return None     # not a perfect matching
        nbytes = np.array([nbytes_of(o.payload) for o in ops])
        t = edge_seconds(np.array(eng._node), np.arange(n), np.array(dst),
                         nbytes, eng._p2p_params)
        return ((_SRECV, slot, np.array(dst), np.array(src), t,
                 nbytes <= eng.eager_limit, nbytes),
                [ops[s].payload for s in src])
    # Collective / Exchange: the groups must partition the job into
    # complete communicators
    keys = [(o.comm_id, o.tag) if kind is Exchange else (o.comm_id,)
            for o in ops]
    values: list = [None] * n
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
            res = xplan.results
            groups.append((slice(None) if members == comms[0]
                           else np.array(members), xplan, eng._xstate(*key)))
        else:
            validate_collective(mine)
            # a split's communicators are the job program's to allocate
            res = collective_results(members, mine,
                                     lambda m, _p: [None] * len(m))
            groups.append((len(order), eng._collective_cost(members, mine)))
        order.extend(members)
        for g, value in zip(members, res):
            values[g] = value
    if len(order) != n:
        return None         # someone posted on a communicator it is not in
    if kind is Exchange:
        return ((_XCHG, slot, groups,
                 np.array([exchange_bytes(o) for o in ops])), values)
    starts = [g[0] for g in groups]
    group = np.empty(n, dtype=np.intp)
    group[order] = np.repeat(np.arange(len(groups)), np.diff(starts + [n]))
    return ((_COLL, slot,
             None if order == list(range(n)) else np.array(order),
             np.array(starts), group, np.array([g[1] for g in groups]),
             np.array([nbytes_of(o.payload) for o in ops])), values)
