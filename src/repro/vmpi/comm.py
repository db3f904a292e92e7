"""Communicator facade for SPMD rank programs.

A rank program is a generator function ``def main(comm: Comm, ...)`` that
yields operation descriptors and is resumed with their results::

    def main(comm):
        local = np.arange(4) * comm.rank
        total = yield comm.allreduce(local)        # real data is reduced
        yield comm.compute(flops=1e9)              # virtual time advances
        if comm.rank == 0:
            yield comm.send(1, total)
        elif comm.rank == 1:
            total = yield comm.recv(0)
        return float(total.sum())

The methods here only *construct* ops (mirroring mpi4py's API surface);
the engine in :mod:`repro.vmpi.engine` interprets them.  Helper
*generators* that communicate are delegated to with ``yield from``; a
*tuple* of ops yielded as one batch runs in order and resumes the rank
once, with the list of results.  A timing program whose every rank runs
the same schedule is a job program instead (:mod:`repro.vmpi.job`).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..units import register_dims
from .ops import (
    Collective,
    Compute,
    Elapse,
    Exchange,
    Irecv,
    Isend,
    Phantom,
    Recv,
    Request,
    Send,
    Sendrecv,
    Wait,
    Waitall,
)

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: every rank program that charges compute/elapse time goes through
#: these two signatures, so they police all application cost models
DIMS = register_dims(__name__, {
    "compute.flops": "FLOP",
    "compute.bytes_moved": "B",
    "compute.efficiency": "1",
    "elapse.seconds": "s",
})


class Comm:
    """A communicator: a set of global ranks with local numbering.

    Instances are created by the engine (``COMM_WORLD``) or by
    :meth:`split`; rank code never constructs one directly.
    """

    def __init__(self, comm_id: int, rank: int, members: tuple[int, ...]):
        self.comm_id = comm_id
        #: local rank within this communicator
        self.rank = rank
        #: global engine ranks of the members, indexed by local rank
        self.members = members
        #: number of ranks in the communicator
        self.size = len(members)
        #: per-job tables (halo pairing): one dict per engine run
        self._job: dict[tuple, Any] = {}

    def __repr__(self) -> str:
        return f"Comm(id={self.comm_id}, rank={self.rank}/{self.size})"

    # Structural identity: two communicators are the same if they give
    # this rank the same local number over the same global members.  The
    # raw ``comm_id`` is engine-internal (its allocation order depends on
    # scheduling), so it must not participate in equality.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comm):
            return NotImplemented
        return self.rank == other.rank and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.rank, self.members))

    # -- local work ---------------------------------------------------------

    def compute(self, flops: float = 0.0, bytes_moved: float = 0.0,
                efficiency: float = 0.25, label: str = "compute") -> Compute:
        """Charge roofline compute time on this rank's device."""
        return Compute(flops=flops, bytes_moved=bytes_moved,
                       efficiency=efficiency, label=label)

    def elapse(self, seconds: float, label: str = "elapse") -> Elapse:
        """Charge a fixed wall-clock duration (I/O, setup, ...)."""
        return Elapse(seconds=seconds, label=label)

    # -- point-to-point -------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> Send:
        """Blocking send to local rank ``dest``."""
        self._check_peer(dest)
        return Send(dest=dest, payload=payload, tag=tag, comm_id=self.comm_id)

    def recv(self, source: int, tag: int = 0) -> Recv:
        """Blocking receive from local rank ``source``."""
        self._check_peer(source)
        return Recv(source=source, tag=tag, comm_id=self.comm_id)

    def isend(self, dest: int, payload: Any, tag: int = 0) -> Isend:
        """Non-blocking send; yield it to obtain a :class:`Request`."""
        self._check_peer(dest)
        return Isend(dest=dest, payload=payload, tag=tag, comm_id=self.comm_id)

    def irecv(self, source: int, tag: int = 0) -> Irecv:
        """Non-blocking receive; yield it to obtain a :class:`Request`."""
        self._check_peer(source)
        return Irecv(source=source, tag=tag, comm_id=self.comm_id)

    def wait(self, request: Request) -> Wait:
        """Block until a request completes; receives resume with data."""
        return Wait(request=request)

    def waitall(self, requests: Iterable[Request]) -> Waitall:
        """Block until all requests complete; resumes with result list."""
        return Waitall(requests=tuple(requests))

    def sendrecv(self, dest: int, payload: Any, source: int,
                 tag: int = 0) -> Sendrecv:
        """Simultaneous send-to-``dest`` / receive-from-``source``."""
        self._check_peer(dest)
        self._check_peer(source)
        return Sendrecv(dest=dest, payload=payload, source=source, tag=tag,
                        comm_id=self.comm_id)

    def exchange(self, sends: Iterable[tuple[int, Any]],
                 recvs: Iterable[int], tag: int = 0,
                 label: str = "p2p") -> Exchange:
        """Fused neighborhood exchange (:class:`~repro.vmpi.ops.Exchange`):
        ``sends`` yields ``(dest, payload)`` pairs, ``recvs`` the source
        ranks; resumes with the received payloads in ``recvs`` order --
        the isends, irecvs and waitall as one descriptor."""
        out = tuple((int(d), p) for d, p in sends)
        srcs = tuple(int(s) for s in recvs)
        for d, _ in out:
            self._check_peer(d)
        for s in srcs:
            self._check_peer(s)
        return Exchange(sends=out, recvs=srcs, tag=tag,
                        comm_id=self.comm_id, label=label)

    # -- collectives -----------------------------------------------------------

    def _collective(self, kind: str, payload: Any, label: str,
                    reduce_op: str = "sum", root: int = 0) -> Collective:
        """Build a collective op on this communicator."""
        return Collective(kind=kind, payload=payload, reduce_op=reduce_op,
                          root=root, comm_id=self.comm_id, label=label)

    def allreduce(self, payload: Any, op: str = "sum",
                  label: str = "allreduce") -> Collective:
        """Element-wise reduction, result on every rank."""
        return self._collective("allreduce", payload, label, reduce_op=op)

    def allgather(self, payload: Any, label: str = "allgather") -> Collective:
        """Gather each rank's payload; every rank gets the full list."""
        return self._collective("allgather", payload, label)

    def alltoall(self, payloads: Iterable[Any] | Phantom,
                 label: str = "alltoall") -> Collective:
        """Personalised exchange: ``payloads[j]`` goes to local rank ``j``;
        resumes with the list received from every rank.  A single
        :class:`Phantom` means "that many bytes to each peer" (the
        uniform form: O(P), not a size-P tuple per rank)."""
        if isinstance(payloads, Phantom):
            return self._collective("alltoall", payloads, label)
        items = tuple(payloads)
        if len(items) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} payloads, got {len(items)}")
        return Collective(kind="alltoall", payload=items, comm_id=self.comm_id,
                          label=label)

    def bcast(self, payload: Any, root: int = 0, label: str = "bcast") -> Collective:
        """Broadcast the root's payload; non-roots pass anything (ignored)."""
        self._check_peer(root)
        return self._collective("bcast", payload, label, root=root)

    def reduce(self, payload: Any, op: str = "sum", root: int = 0,
               label: str = "reduce") -> Collective:
        """Reduction to ``root``; other ranks resume with ``None``."""
        self._check_peer(root)
        return self._collective("reduce", payload, label, reduce_op=op,
                                root=root)

    def gather(self, payload: Any, root: int = 0, label: str = "gather") -> Collective:
        """Gather to ``root`` (list of payloads); others get ``None``."""
        self._check_peer(root)
        return self._collective("gather", payload, label, root=root)

    def scatter(self, payloads: Iterable[Any] | None, root: int = 0,
                label: str = "scatter") -> Collective:
        """Scatter the root's list; every rank resumes with its item."""
        self._check_peer(root)
        items = None if payloads is None else tuple(payloads)
        if items is not None and len(items) != self.size:
            raise ValueError(
                f"scatter needs exactly {self.size} payloads, got {len(items)}")
        return Collective(kind="scatter", payload=items, root=root,
                          comm_id=self.comm_id, label=label)

    def barrier(self, label: str = "barrier") -> Collective:
        """Synchronise all ranks of the communicator."""
        return self._collective("barrier", None, label)

    def split(self, color: int, key: int | None = None) -> Collective:
        """Partition the communicator by ``color``; resumes with the new
        :class:`Comm` (ranks ordered by ``key``, default current rank)."""
        k = self.rank if key is None else key
        return Collective(kind="split", payload=(int(color), int(k)),
                          comm_id=self.comm_id, label="split")

    # -- internals ----------------------------------------------------------------

    def _check_peer(self, local_rank: int) -> None:
        if not 0 <= local_rank < self.size:
            raise ValueError(
                f"rank {local_rank} outside communicator of size {self.size}")
