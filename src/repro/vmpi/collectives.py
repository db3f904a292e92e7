"""Collective algebra of the virtual-MPI engine.

The engine (:mod:`repro.vmpi.engine`) and the test-side reference
scheduler must agree *byte for byte* on what a collective returns and
costs, so both compute it from these pure functions.  Each kind is
priced by one closed-form alpha-beta-congestion formula of
:class:`~repro.cluster.network.NetworkModel` with a single byte
argument, which :func:`collective_arg_bytes` reduces the posted
payloads to (the engine caches costs on ``(comm, kind, arg_bytes)``).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..units import register_dims
from .ops import Collective, Phantom, nbytes_of

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: the byte argument reduced here feeds the network closed forms, so
#: annotating it keeps the cost path provably B -> s end to end
DIMS = register_dims(__name__, {
    "collective_arg_bytes.return": "B",
    "collective_cost.arg_bytes": "B",
    "collective_cost.return": "s",
})


class VmpiError(RuntimeError):
    """Base class for engine errors."""


class DeadlockError(VmpiError):
    """All unfinished ranks are blocked and nothing can complete."""


class CollectiveMismatchError(VmpiError):
    """Ranks of one communicator posted different collectives."""


class RankFailedError(VmpiError):
    """A rank program raised; carries the originating rank."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(
            f"rank {rank} failed: {type(original).__name__}: {original}")
        self.rank = rank
        self.original = original


def reduce_payloads(payloads: list[Any], op: str) -> Any:
    """Element-wise reduction across rank payloads (phantom-aware)."""
    if any(isinstance(p, Phantom) for p in payloads):
        return Phantom(max(nbytes_of(p) for p in payloads))
    funcs = {"sum": np.add, "max": np.maximum, "min": np.minimum,
             "prod": np.multiply}
    if op not in funcs:
        raise VmpiError(f"unknown reduction op {op!r}")
    fn = funcs[op]
    acc = np.array(payloads[0]) if isinstance(payloads[0], np.ndarray) \
        else payloads[0]
    for p in payloads[1:]:
        acc = fn(acc, p)
    return acc


def validate_collective(ops: list[Collective]) -> None:
    """Check that all members posted the same collective.

    Compared in local-rank order against local rank 0, so the reported
    pair is deterministic however the ranks were scheduled.
    """
    first = ops[0]
    for o in ops[1:]:
        if (o.kind, o.reduce_op, o.root) != (first.kind, first.reduce_op,
                                             first.root):
            raise CollectiveMismatchError(
                f"comm members posted {first.kind!r} vs {o.kind!r}")


def partial_mismatch(posted: list[tuple[int, Collective]]) -> str | None:
    """Mismatch description among a *partially* posted collective.

    ``posted`` pairs local ranks with their ops (any subset of the
    communicator); a subset that already disagrees is raised at deadlock
    time instead of a plain :class:`DeadlockError`, as the collective
    bug it is.  Compared in local-rank order, so deterministic.
    """
    ordered = sorted(posted)
    first = ordered[0][1]
    for local, o in ordered[1:]:
        if (o.kind, o.reduce_op, o.root) != (first.kind, first.reduce_op,
                                             first.root):
            return (f"comm members posted {first.kind!r} "
                    f"(local rank {ordered[0][0]}) vs {o.kind!r} "
                    f"(local rank {local}) -- partial post, "
                    f"{len(posted)} rank(s) arrived")
    return None


def _uniform_alltoall(payloads: list[Any]) -> bool:
    """True for the uniform (single-Phantom) alltoall form."""
    if not any(isinstance(p, Phantom) for p in payloads):
        return False
    if not all(isinstance(p, Phantom) for p in payloads):
        raise VmpiError(
            "alltoall payloads must be uniformly Phantom or size-P tuples "
            "on every rank")
    return True


def collective_arg_bytes(ops: list[Collective]) -> float:
    """The single byte argument of a collective's cost formula.

    Reduces the per-member payload sizes exactly the way the engine
    always has: the biggest posted size for the symmetric collectives,
    the root's size for bcast, per-rank share for scatter, per-pair
    volume for alltoall.
    """
    kind = ops[0].kind
    if kind in ("barrier", "split"):
        return 0.0
    sizes = [nbytes_of(o.payload) for o in ops]
    biggest = max(sizes) if sizes else 0.0
    p = len(ops)
    if kind == "alltoall":
        if _uniform_alltoall([o.payload for o in ops]):
            return biggest  # already a per-pair size
        return biggest / p if p else 0.0
    if kind == "bcast":
        return sizes[ops[0].root]
    if kind == "scatter":
        return biggest / max(p, 1)
    # allreduce, allgather, reduce, gather
    return biggest


def collective_cost(network: Any, node_set: tuple[int, ...], nranks: int,
                    kind: str, arg_bytes: float) -> float:
    """Closed-form cost of one collective over a placed communicator."""
    if kind == "allreduce":
        return network.allreduce_time(node_set, nranks, arg_bytes)
    if kind == "allgather":
        return network.allgather_time(node_set, nranks, arg_bytes)
    if kind == "alltoall":
        return network.alltoall_time(node_set, nranks, arg_bytes)
    if kind == "bcast":
        return network.bcast_time(node_set, nranks, arg_bytes)
    if kind == "reduce":
        return network.bcast_time(node_set, nranks, arg_bytes)
    if kind in ("gather", "scatter"):
        return network.allgather_time(node_set, nranks, arg_bytes)
    if kind in ("barrier", "split"):
        return network.barrier_time(node_set, nranks)
    raise VmpiError(f"no cost model for collective {kind!r}")


def collective_results(members: tuple[int, ...], ops: list[Collective],
                       split_alloc: Callable[[tuple[int, ...], list[Any]],
                                             list[Any]]) -> list[Any]:
    """Per-local-rank resume values of one completed collective.

    ``split_alloc`` performs the engine-side communicator allocation for
    ``split`` (it needs the comm-id counter); everything else is pure.
    """
    kind = ops[0].kind
    p = len(members)
    payloads = [o.payload for o in ops]
    if kind == "barrier":
        return [None] * p
    if kind == "allreduce":
        red = reduce_payloads(payloads, ops[0].reduce_op)
        return [red] * p
    if kind == "reduce":
        red = reduce_payloads(payloads, ops[0].reduce_op)
        return [red if i == ops[0].root else None for i in range(p)]
    if kind == "allgather":
        return [list(payloads)] * p
    if kind == "gather":
        return [list(payloads) if i == ops[0].root else None
                for i in range(p)]
    if kind == "bcast":
        return [payloads[ops[0].root]] * p
    if kind == "scatter":
        items = payloads[ops[0].root]
        if items is None or len(items) != p:
            raise VmpiError("scatter root must supply one payload per rank")
        return list(items)
    if kind == "alltoall":
        if _uniform_alltoall(payloads):
            # every receiver gets [what rank 0 sends each peer, ...]:
            # the transpose of a uniform matrix is one shared row
            return [payloads] * p
        for pl in payloads:
            if not isinstance(pl, tuple) or len(pl) != p:
                raise VmpiError("alltoall payloads must be size-P tuples")
        return [[payloads[i][j] for i in range(p)] for j in range(p)]
    if kind == "split":
        return split_alloc(members, payloads)
    raise VmpiError(f"no result rule for collective {kind!r}")
