"""Round state and edge plans of the virtual-MPI engine.

Plain data and pure functions the engine (:mod:`repro.vmpi.engine`)
uses to complete a round at once: a job's halo column as NumPy edge
arrays, paired and priced (:func:`build_plan`) and timed
(:meth:`XchgPlan.complete`), and the one collective round a
communicator can have in flight (:class:`CollRound`).  Nothing here
touches clocks, traces or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ops import Exchange, nbytes_of

__all__ = ["CollRound", "PLAN_LIMIT", "XchgPlan", "build_plan",
           "edge_seconds", "exchange_bytes"]

#: entries a per-run memo keeps (the tables of a job memo ``Comm._job``);
#: a program whose grids change every step starts over instead of
#: growing the memo with its step count
PLAN_LIMIT = 16


@dataclass
class XchgPlan:
    """Precomputed completion algebra of one exchange round, edge
    arrays indexed by position in the communicator's member tuple."""

    src_idx: np.ndarray     # member index of each edge's sender
    dst_idx: np.ndarray     # member index of each edge's receiver
    t: np.ndarray           # per-edge transfer seconds (alpha + n/beta)
    eager: np.ndarray       # per-edge bool: send completes locally

    def complete(self, posts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(done, waited)`` per member of one round posted at ``posts``:
        a receive completes at ``max(both posts) + t``, a send likewise
        unless it is eager (``post + t``), and a member leaves at the
        latest of its edges: the per-edge machinery's timing, for all
        edges at once."""
        if not len(self.src_idx):
            return posts, np.zeros(len(posts))
        sposts = posts[self.src_idx]
        recv_done = np.maximum(sposts, posts[self.dst_idx]) + self.t
        send_done = np.where(self.eager, sposts + self.t, recv_done)
        done = posts.copy()
        np.maximum.at(done, self.src_idx, send_done)
        np.maximum.at(done, self.dst_idx, recv_done)
        return done, np.maximum(done - posts, 0.0)


class CollRound:
    """One communicator's collective round in flight.

    Collectives synchronise, so a communicator has at most one round
    pending: a member cannot post round ``k+1`` before round ``k`` --
    which needs every member -- has completed.  ``ops``/``posts`` are
    indexed by local rank.
    """

    __slots__ = ("members", "nmem", "local", "ops", "posts", "count")

    def __init__(self, members: tuple[int, ...]):
        self.members = members
        self.nmem = len(members)
        self.local = {g: i for i, g in enumerate(members)}
        self.ops: list = [None] * self.nmem
        self.posts = [0.0] * self.nmem
        self.count = 0


def exchange_bytes(op: Exchange) -> float:
    """Total send bytes of an exchange (left fold, cached on the op)."""
    total = op.__dict__.get("_nbytes_total")
    if total is None:
        total = 0.0
        for _, payload in op.sends:
            total = total + nbytes_of(payload)
        object.__setattr__(op, "_nbytes_total", total)
    return total


def build_plan(members: tuple[int, ...], edges: tuple,
               nodes: Sequence[int],
               p2p_params: Callable[[tuple[int, int]], tuple[float, float]],
               eager_limit: float) -> XchgPlan | None:
    """Pair and price one round's edges; None if the structure is unpaired.

    ``edges`` is ``(send_src, send_dst, sizes, recv_src, recv_dst)``,
    member-index arrays in op order.  Pairing replicates per-edge FIFO
    order -- the k-th send on a directed pair matches its k-th receive
    -- with one stable sort per side on the ``(sender, receiver)`` key;
    edge order in the plan is immaterial (completion is a max).
    ``nodes`` maps a global rank to its node and ``p2p_params`` a node
    pair to its alpha-beta parameters.
    """
    send_src, send_dst, sizes, recv_src, recv_dst = edges
    nmem = len(members)
    if len(send_src) != len(recv_src):
        return None
    by_send = np.argsort(send_src * nmem + send_dst, kind="stable")
    by_recv = np.argsort(recv_src * nmem + recv_dst, kind="stable")
    src_idx = send_src[by_send]
    dst_idx = send_dst[by_send]
    if not (np.array_equal(src_idx, recv_src[by_recv])
            and np.array_equal(dst_idx, recv_dst[by_recv])):
        return None
    sizes = sizes[by_send]
    node_of = np.fromiter((nodes[g] for g in members), np.intp, nmem)
    return XchgPlan(src_idx, dst_idx,
                    edge_seconds(node_of, src_idx, dst_idx, sizes,
                                 p2p_params),
                    sizes <= eager_limit)


def edge_seconds(node_of: np.ndarray, src_idx: np.ndarray,
                 dst_idx: np.ndarray, sizes: np.ndarray,
                 p2p_params: Callable) -> np.ndarray:
    """Per-edge ``alpha + n/beta``: the engine's ``_p2p_seconds``,
    vectorized (one model query per distinct node pair, same IEEE
    operations)."""
    src_node, dst_node = node_of[src_idx], node_of[dst_idx]
    span = int(node_of.max()) + 1
    pairs, which = np.unique(src_node * span + dst_node, return_inverse=True)
    params = np.array([p2p_params(divmod(code, span))
                       for code in pairs.tolist()],
                      dtype=np.float64).reshape(-1, 2)
    t = params[which, 0] + sizes / params[which, 1]
    t[(src_node == dst_node) & (sizes == 0)] = 0.0
    return t
