"""Job programs: a whole SPMD job built once, as columns.

A *job program* is a plain function (not a generator)::

    def prog(world, steps):
        step = (world.compute(flops=1e12, label="kernel"),
                *world.halo(cart, faces),
                world.allreduce(Phantom(8.0), label="dot"))
        return ((), step, steps, ()), value

:meth:`~repro.vmpi.engine.VmpiEngine.run` calls it *once* per run with
a :class:`World` and gets back ``((prologue, step, steps, epilogue),
value)``: every rank runs the prologue, then the step ``steps`` times,
then the epilogue, and returns ``value``.  Each entry of a phase is a
*column*, position ``j`` of every rank's schedule: one
:class:`~repro.vmpi.ops.Op` that every rank posts, a tuple with one op
per global rank (``None`` where a rank posts nothing), or a
:class:`Column` held as the arrays it is planned from -- a halo, a
split, or a collective or ring on each rank's communicator of a split
(:class:`CommTable`).  The engine plans each distinct column once over
NumPy arrays (:mod:`repro.vmpi.sweep`) and runs the step plan ``steps``
times; a schedule it cannot read as columns runs rank by rank, op by
op, on the per-rank path (``column[r]`` builds rank ``r``'s op for it),
which defines the semantics and raises the errors.  This is the
engine's one column mechanism: a rank program's tuple batch always
runs op by op.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import decomposition
from .comm import Comm
from .decomposition import CartGrid
from .ops import Collective, Exchange, Op, Phantom, nbytes_of

__all__ = ["Column", "CommTable", "World"]


class Column:
    """A column held as arrays: a ``"halo"`` (``data``: the faces x
    ranks peer table, the face payloads), a ``"sendrecv"`` (global
    destinations and sources, ``-1`` where a rank posts nothing; bytes)
    or a collective kind (each rank's comm id; bytes).  ``column[r]``
    builds rank ``r``'s op, or ``None``, for the per-rank path, once
    (``IndexError`` past the last rank, from the arrays)."""

    def __init__(self, kind: str, label: str, data: tuple,
                 make: Callable[[int], Op | None]):
        self.kind, self.label, self.data = kind, label, data
        self._make, self._ops = make, {}

    def __getitem__(self, r: int) -> Op | None:
        if r not in self._ops:
            self._ops[r] = self._make(r)
        return self._ops[r]


class CommTable:
    """Every rank's communicator of one :meth:`World.split`, as int
    arrays indexed by global rank (``comm_id``, local ``rank``,
    ``size``); ``table[r]`` is rank ``r``'s :class:`Comm`.  Its
    collectives and ring exchange are columns, priced per communicator;
    ``nbytes`` is one phantom size, or one per rank."""

    def __init__(self, engine: Any, comm_id: np.ndarray, rank: np.ndarray,
                 size: np.ndarray, start: np.ndarray, placed: np.ndarray):
        self.comm_id, self.rank, self.size = comm_id, rank, size
        self._engine, self._start, self._placed = engine, start, placed

    def __getitem__(self, r: int) -> Comm:
        cid = int(self.comm_id[r])
        return Comm(cid, int(self.rank[r]), self._engine._comms[cid])

    def allreduce(self, nbytes: Any, label: str = "allreduce") -> Column:
        """Every rank's ``allreduce`` on its communicator."""
        nbytes = np.broadcast_to(np.asarray(nbytes, float), self.size.shape)
        Phantom(float(nbytes.min()))    # Phantom's size check, at the call
        return Column("allreduce", label, (self.comm_id, nbytes),
                      lambda r: self[r].allreduce(Phantom(float(nbytes[r])),
                                                  label=label))

    def alltoall(self, nbytes: Any, label: str = "alltoall") -> Column:
        """Every rank's personalised ``alltoall`` on its communicator: a
        size-P tuple of ``Phantom(nbytes)``, one to each member, held
        as its total bytes (``nbytes_of`` of the tuple)."""
        nbytes = np.broadcast_to(np.asarray(nbytes, float), self.size.shape)
        Phantom(float(nbytes.min()))    # Phantom's size check, at the call
        keys = list(zip(nbytes.tolist(), self.size.tolist()))
        rows = {k: (Phantom(k[0]),) * k[1] for k in dict.fromkeys(keys)}
        total = {k: nbytes_of(row) for k, row in rows.items()}
        return Column("alltoall", label, (self.comm_id, np.array(
            list(map(total.__getitem__, keys)))), lambda r:
            self[r].alltoall(rows[keys[r]], label=label))

    def shift(self, nbytes: Any, tag: int = 0) -> tuple:
        """Every rank's ``sendrecv`` to local rank ``rank + 1`` from
        ``rank - 1`` (mod size) as ``(column,)``: a rank alone in its
        communicator posts nothing, and no rank posts gives ``()``."""
        alone = self.size == 1
        nbytes = np.broadcast_to(np.asarray(nbytes, float), alone.shape)
        Phantom(float(nbytes.min()))    # Phantom's size check, at the call
        dst, src = (np.where(alone, -1, self._placed[
            self._start + (self.rank + k) % self.size]) for k in (1, -1))

        def make(r: int) -> Op | None:
            me, n = int(self.rank[r]), int(self.size[r])
            return None if n == 1 else self[r].sendrecv(
                (me + 1) % n, Phantom(float(nbytes[r])), (me - 1) % n, tag)
        return () if alone.all() else (
            Column("sendrecv", "p2p", (dst, src, nbytes), make),)


class World(Comm):
    """``COMM_WORLD`` of a job program, for every rank at once: the
    inherited :class:`~repro.vmpi.comm.Comm` methods build one op that
    every rank posts, :meth:`split` and :meth:`halo` a :class:`Column`."""

    def __init__(self, engine: Any):
        super().__init__(comm_id=0, rank=None, members=engine._comms[0])
        self._engine = engine

    def split(self, color: Sequence[int],
              key: Sequence[int] | None = None) -> tuple[Column, CommTable]:
        """Every rank's ``split(color[r], key[r])``: ``(column,
        table)``, the new communicators allocated now and in the order
        the per-rank split allocates them."""
        color = np.asarray(color, np.int64)
        key = np.asarray(range(self.size) if key is None else key, np.int64)
        if len(color) != self.size or len(key) != self.size:
            raise ValueError(f"a split of {len(color)} colors and "
                             f"{len(key)} keys does not tile a world of "
                             f"{self.size}")
        table = CommTable(self._engine, *self._engine._split_table(
            self.members, color, key))
        column = Column("split", "split", (np.zeros(self.size, np.int64),
                        np.full(self.size, nbytes_of((0, 0)))), lambda r:
                        Collective(kind="split", label="split",
                                   payload=(int(color[r]), int(key[r]))))
        return column, table

    def halo(self, cart: CartGrid, faces: dict[tuple[int, int], Any],
             tag: int = 100, label: str = "p2p") -> tuple:
        """Every rank's ``halo_batch`` as ``(column,)`` over one
        :func:`~repro.vmpi.decomposition.halo_table`, or ``()`` when no
        rank has a neighbour."""
        if cart.size != self.size:
            raise ValueError(f"a grid of {cart.size} ranks does not tile "
                             f"a world of {self.size}")
        table = decomposition.halo_table(self, cart, tuple(faces))
        if not (table.peers >= 0).any():
            return ()
        faces = dict(faces)

        def make(r: int) -> Op | None:
            send_keys, dests, recvs, keys = table.row(r)
            sends = tuple(zip(dests, map(faces.__getitem__, send_keys)))
            return Exchange(sends, recvs, tag=tag, label=label) if keys \
                else None
        payloads = [faces[k] for k in table.keys]
        return (Column("halo", label, (table.peers, payloads), make),)


def job_rank(r: int, prologue: Sequence, step: Sequence, steps: int,
             epilogue: Sequence, value: Any) -> Iterator:
    """A job on the per-rank path: rank ``r``'s program, with the step
    as one batch per step."""
    def mine(columns: Sequence) -> tuple[Op, ...]:
        ops = (c if isinstance(c, Op) else c[r] for c in columns)
        return tuple(op for op in ops if op is not None)

    for op in mine(prologue):
        yield op
    row = mine(step)
    for _ in range(steps):
        yield row
    for op in mine(epilogue):
        yield op
    return value
