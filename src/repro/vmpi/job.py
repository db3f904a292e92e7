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
*column* -- one :class:`~repro.vmpi.ops.Op` that every rank posts, or a
tuple with one op per global rank (``None`` where a rank posts
nothing).  The engine plans each distinct column once over NumPy arrays
(:mod:`repro.vmpi.sweep`) and runs the step plan ``steps`` times; a
schedule it cannot read as columns -- a column with a ``None`` among
them -- runs rank by rank, op by op, on the per-rank path, which
defines the semantics and raises the errors.  This is the engine's one
column mechanism: a rank program's tuple batch always runs op by op.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from . import decomposition
from .comm import Comm
from .decomposition import CartGrid
from .ops import Collective, Exchange, Op

__all__ = ["World"]


class World(Comm):
    """``COMM_WORLD`` of a job program, for every rank at once.

    The inherited :class:`~repro.vmpi.comm.Comm` methods build one op
    that every rank posts; :meth:`split` and :meth:`halo` build a
    column that differs per rank.
    """

    def __init__(self, engine: Any):
        super().__init__(comm_id=0, rank=None, members=engine._comms[0])
        self._engine = engine

    def split(self, color: Sequence[int],
              key: Sequence[int] | None = None) -> tuple[tuple, list[Comm]]:
        """Every rank's ``split(color[r], key[r])``: ``(column, comms)``,
        ``comms[r]`` being rank ``r``'s new communicator, allocated now
        and in the order the per-rank split allocates them."""
        keys = range(self.size) if key is None else key
        payloads = [(int(c), int(k)) for c, k in zip(color, keys)]
        column = tuple(Collective(kind="split", payload=p, label="split")
                       for p in payloads)
        return column, self._engine._do_split(self.members, payloads)

    def halo(self, cart: CartGrid, faces: dict[tuple[int, int], Any],
             tag: int = 100, label: str = "p2p") -> tuple:
        """Every rank's :func:`~repro.vmpi.decomposition.halo_batch`, as
        ``(column,)`` built from one
        :func:`~repro.vmpi.decomposition.halo_table`, or ``()`` when
        no rank has a neighbour."""
        if cart.size != self.size:
            raise ValueError(f"a grid of {cart.size} ranks does not tile "
                             f"a world of {self.size}")
        column = tuple(
            Exchange(sends=tuple(zip(dests, map(faces.__getitem__, sk))),
                     recvs=recvs, tag=tag, label=label) if keys else None
            for sk, dests, recvs, keys in
            decomposition.halo_table(self, cart, tuple(faces)))
        return () if column.count(None) == self.size else (column,)


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
