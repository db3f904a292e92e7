"""Operation descriptors for the virtual-MPI engine.

Rank programs are plain Python generators that *yield* these descriptors
(usually built via the :class:`~repro.vmpi.comm.Comm` facade) and are
resumed with the operation's result.  The engine interprets each op in
two coupled ways:

* **data**: real payloads (NumPy arrays, scalars, anything sized by
  :func:`nbytes_of`) are actually moved/reduced, so distributed
  algorithms can be verified bit-for-bit at small scale;
* **time**: every op advances the issuing rank's virtual clock using the
  machine model, so the same program yields timing at any scale.

:class:`Phantom` payloads carry only a byte count -- large-scale runs
use them to exercise the exact communication structure without
materialising terabytes of state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Phantom:
    """A size-only payload: ``nbytes`` bytes that are never materialised."""

    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("Phantom size must be non-negative")


def nbytes_of(payload: Any) -> float:
    """Wire size of a payload in bytes.

    NumPy arrays report their buffer size; scalars count as 8 bytes;
    containers sum their items; ``None`` is zero (pure synchronisation).
    """
    if payload is None:
        return 0.0
    if isinstance(payload, Phantom):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return float(len(payload))
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(payload, (list, tuple)):
        return float(sum(map(nbytes_of, payload)))
    if isinstance(payload, dict):
        return float(sum(map(nbytes_of, payload.values())))
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


def _validate_root(root: Any) -> None:
    """Rooted collectives need an int local rank; bounds are checked by
    the communicator, type and sign are checked here."""
    if isinstance(root, bool) or not isinstance(root, int):
        raise TypeError(f"root must be an int, got {type(root).__name__}")
    if root < 0:
        raise ValueError(f"root must be non-negative, got {root}")


class Op:
    """Base class for all yielded operations."""

    __slots__ = ()


class _Tagged(Op):
    """An op with a ``tag``.  Tags address per-channel FIFO queues, so
    junk is rejected at construction: catching a negative or non-int
    tag here (instead of deep in the engine's matching tables) keeps
    the failure at the line that built the op -- and is the contract
    the static protocol pass (:mod:`repro.check.protocol`) assumes when
    it folds tags."""

    __slots__ = ()

    def __post_init__(self) -> None:
        tag = self.tag  # type: ignore[attr-defined]
        if isinstance(tag, bool) or not isinstance(tag, int):
            raise TypeError(f"tag must be an int, got {type(tag).__name__}")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")


@dataclass(frozen=True)
class Compute(Op):
    """Local work: ``flops`` floating-point ops touching ``bytes_moved`` bytes.

    The engine charges roofline time on the issuing rank's device, scaled
    by ``efficiency`` (attainable fraction of peak for this kernel).
    ``label`` buckets the time in the trace (e.g. Arbor's ``"channels"``
    vs ``"cable"`` cost centres, Sec. IV-A2a).
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    efficiency: float = 0.25
    label: str = "compute"

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError("work amounts must be non-negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


@dataclass(frozen=True)
class Elapse(Op):
    """Advance the local clock by a fixed number of seconds (e.g. I/O
    charged from the storage model, or setup phases)."""

    seconds: float
    label: str = "elapse"

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("cannot elapse negative time")


@dataclass(frozen=True)
class Send(_Tagged):
    """Blocking send of ``payload`` to ``dest`` (rendezvous semantics)."""

    dest: int
    payload: Any
    tag: int = 0
    comm_id: int = 0


@dataclass(frozen=True)
class Recv(_Tagged):
    """Blocking receive from ``source``; resumes with the payload."""

    source: int
    tag: int = 0
    comm_id: int = 0


@dataclass(frozen=True)
class Isend(_Tagged):
    """Non-blocking send; resumes immediately with a request handle."""

    dest: int
    payload: Any
    tag: int = 0
    comm_id: int = 0


@dataclass(frozen=True)
class Irecv(_Tagged):
    """Non-blocking receive; resumes immediately with a request handle."""

    source: int
    tag: int = 0
    comm_id: int = 0


@dataclass(frozen=True)
class Wait(Op):
    """Block until ``request`` completes; receives resume with the payload."""

    request: "Request"


@dataclass(frozen=True)
class Waitall(Op):
    """Block until all ``requests`` complete; resumes with a list of
    payloads (``None`` entries for sends)."""

    requests: tuple["Request", ...]


@dataclass(frozen=True)
class Sendrecv(_Tagged):
    """Simultaneous exchange: send to ``dest`` while receiving from
    ``source`` (the classic halo-exchange primitive); resumes with the
    received payload."""

    dest: int
    payload: Any
    source: int
    tag: int = 0
    comm_id: int = 0


@dataclass(frozen=True)
class Exchange(_Tagged):
    """A fused neighborhood exchange (MPI_Neighbor_alltoallv-style).

    ``sends`` lists ``(dest_local, payload)`` pairs, ``recvs`` the local
    source ranks, both in program order; the op resumes with the
    received payloads in ``recvs`` order.  Exchanges match only other
    exchanges (like MPI neighborhood collectives): under one ``(comm,
    tag)`` each directed pair matches its k-th exchanged send with its
    k-th exchanged receive, independent of scheduling order.
    """

    sends: tuple[tuple[int, Any], ...]
    recvs: tuple[int, ...]
    tag: int = 0
    comm_id: int = 0
    label: str = "p2p"


@dataclass(frozen=True)
class Collective(Op):
    """A collective over all ranks of a communicator.

    ``kind`` is one of ``allreduce | allgather | alltoall | bcast |
    reduce | gather | scatter | barrier | split``.  ``reduce_op`` applies
    to (all)reduce.  ``root`` applies to rooted collectives.  An
    ``alltoall`` payload is either a size-P tuple (personalised data per
    destination) or a single :class:`Phantom` meaning that many bytes to
    *each* peer (the uniform form large-scale timing programs use).
    """

    kind: str
    payload: Any = None
    reduce_op: str = "sum"
    root: int = 0
    comm_id: int = 0
    label: str = ""

    _KINDS = frozenset({"allreduce", "allgather", "alltoall", "bcast",
                        "reduce", "gather", "scatter", "barrier", "split"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown collective kind {self.kind!r}")
        _validate_root(self.root)


@dataclass
class Request:
    """Handle for an outstanding non-blocking operation (engine-internal
    state; rank code only stores and waits on it)."""

    rank: int
    is_send: bool
    peer: int
    tag: int
    comm_id: int
    post_time: float
    payload: Any = None
    rid: int = field(default=-1)
    done: bool = False
    complete_time: float = 0.0
    result: Any = None
    #: wire size of ``payload``, cached at post time (sends only)
    nbytes: float = 0.0

    def __hash__(self) -> int:  # identity-hash: each posted request is unique
        return id(self)

