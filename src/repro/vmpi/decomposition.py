"""Domain decomposition helpers (Cartesian grids, halo exchange).

The paper repeatedly stresses that decomposition quality drives
performance at scale (Sec. V-A: "estimates, rules, or scripts for ideal
domain decomposition were devised, e.g., for Chroma-QCD, PIConGPU,
NAStJA and DynQCD").  This module provides those rules as reusable code:

* :func:`dims_create` -- balanced factorisation of a rank count into a
  Cartesian grid (the MPI_Dims_create contract, plus an aspect-aware
  variant that minimises communication surface for a given domain),
* :class:`CartGrid` -- rank <-> coordinate maps and neighbour lookup,
* :func:`halo_table` -- every rank's halo pairing, built once per job,
* :func:`halo_exchange` -- non-blocking face exchange for NumPy blocks
  (used by NAStJA, PIConGPU, ParFlow, ICON and the lattice codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from .comm import Comm
from .ops import Exchange, Phantom
from .rounds import PLAN_LIMIT


def block_partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal slices;
    the first ``n % parts`` get one extra element (the balanced block
    distribution)."""
    if parts < 1:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    out: list[tuple[int, int]] = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@lru_cache(maxsize=4096)
def dims_create(nranks: int, ndims: int,
                extents: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Factor ``nranks`` into ``ndims`` grid dimensions.

    Without ``extents`` this matches MPI_Dims_create: factors as close to
    each other as possible, decreasing order.  With ``extents`` (the
    global domain shape) the factorisation minimising total halo surface
    is chosen instead -- the "decomposition study in code" the paper's
    applications needed.
    """
    if nranks < 1 or ndims < 1:
        raise ValueError("nranks and ndims must be positive")
    best: tuple[int, ...] | None = None
    best_score = float("inf")
    for dims in _factorizations(nranks, ndims):
        if extents is not None:
            if any(e % d != 0 and e < d for e, d in zip(extents, dims)):
                continue
            block = [e / d for e, d in zip(extents, dims)]
            vol = float(np.prod(block))
            surface = sum(2.0 * vol / b for b in block)
            score = surface
        else:
            score = max(dims) - min(dims) + max(dims) / nranks
        if score < best_score:
            best_score = score
            best = dims
    if best is None:
        # All candidates rejected (extents smaller than every factor split);
        # fall back to the balanced factorisation.
        return dims_create(nranks, ndims)
    return tuple(sorted(best, reverse=True))


def _factorizations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All multisets of k positive integers whose product is n."""
    if k == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _factorizations(n // d, k - 1):
                yield (d,) + rest


@dataclass(frozen=True)
class CartGrid:
    """A Cartesian process grid over a communicator.

    ``periodic`` marks wrap-around per dimension (lattice QCD and
    PIConGPU's KHI case are fully periodic; ParFlow's soil column
    is not).
    """

    dims: tuple[int, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.periodic):
            raise ValueError("dims and periodic must have equal length")
        if any(d < 1 for d in self.dims):
            raise ValueError("all dims must be positive")

    @classmethod
    def for_ranks(cls, nranks: int, ndims: int,
                  extents: tuple[int, ...] | None = None,
                  periodic: bool | tuple[bool, ...] = True) -> "CartGrid":
        """Build a grid for ``nranks`` using :func:`dims_create`."""
        dims = dims_create(nranks, ndims, extents)
        per = (periodic,) * ndims if isinstance(periodic, bool) else tuple(periodic)
        return cls(dims=dims, periodic=per)

    @property
    def size(self) -> int:
        """Total ranks in the grid."""
        return math.prod(self.dims)

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of a rank (row-major, like MPI_Cart_coords)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside grid of size {self.size}")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Rank at the given coordinates (periodic wrap where allowed)."""
        rank = 0
        for c, d in zip(coords, self.dims):
            rank = rank * d + (c % d)
        return rank

    def neighbor(self, rank: int, dim: int, direction: int) -> int | None:
        """Neighbouring rank one step along ``dim`` (+1/-1).

        ``None`` at a non-periodic boundary.
        """
        c = list(self.coords(rank))
        c[dim] += direction
        if not self.periodic[dim] and not 0 <= c[dim] < self.dims[dim]:
            return None
        return self.rank_of(tuple(c))

    def local_shape(self, global_shape: tuple[int, ...],
                    rank: int) -> tuple[int, ...]:
        """Shape of a rank's block under balanced block distribution."""
        out = []
        for g, d, c in zip(global_shape, self.dims, self.coords(rank)):
            lo, hi = block_partition(g, d)[c]
            out.append(hi - lo)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class HaloTable:
    """Every rank's halo pairing on one grid for one face set."""

    keys: tuple[tuple[int, int], ...]   # the faces, sorted: send order
    #: faces x ranks: the neighbour each face goes to, -1 beyond a wall
    peers: np.ndarray
    mirror: tuple[int, ...]  # receive order: ``(dim, -direction)``

    def __len__(self) -> int:
        return self.peers.shape[1]

    def row(self, r: int) -> tuple[tuple, ...]:
        """Rank ``r``'s ``(send keys, destinations, sources, receive
        keys)``."""
        out = self.peers[:, r].tolist()
        s = [i for i, p in enumerate(out) if p >= 0]
        g = [i for i in self.mirror if out[i] >= 0]
        return (tuple(self.keys[i] for i in s), tuple(out[i] for i in s),
                tuple(out[i] for i in g), tuple(self.keys[i] for i in g))


def halo_table(comm: Comm, cart: CartGrid,
               keys: tuple[tuple[int, int], ...]) -> HaloTable:
    """Every rank's halo pairing on ``cart`` for the faces ``keys``:
    sends in sorted face order, receives in mirrored ``(dim,
    -direction)`` order, so a neighbour's k-th send towards a rank is
    that rank's k-th receive from it.  Built with NumPy for all ranks
    at once, kept in the job memo ``comm._job`` (one per engine run,
    bounded)."""
    memo = comm._job
    table = memo.get((cart, keys))
    if table is not None:
        return table
    ordered = tuple(sorted(keys))
    if any(d not in (-1, 1) for _, d in ordered):
        raise ValueError("face direction must be -1 or +1")
    mirror = sorted(range(len(ordered)),
                    key=lambda i: (ordered[i][0], -ordered[i][1]))
    coords = np.indices(cart.dims).reshape(cart.ndims, -1)
    peers = np.empty((len(ordered), cart.size), dtype=np.int64)
    for peer, (dim, d) in zip(peers, ordered):
        c = coords.copy()
        c[dim] += d
        peer[:] = np.ravel_multi_index(c, cart.dims, mode="wrap")
        if not cart.periodic[dim]:
            peer[(c[dim] < 0) | (c[dim] >= cart.dims[dim])] = -1
    if len(memo) >= PLAN_LIMIT:
        memo.clear()
    memo[cart, keys] = table = HaloTable(ordered, peers, tuple(mirror))
    return table


def halo_exchange_op(comm: Comm, cart: CartGrid,
                     faces: dict[tuple[int, int], Any], tag: int = 100,
                     label: str = "p2p"):
    """The fused :class:`~repro.vmpi.ops.Exchange` of one halo sweep,
    as ``(op, keys)``: ``keys`` names each received payload's ``(dim,
    direction)``, in the op's result order.  Every call builds a fresh
    op from this rank's row of :func:`halo_table` (whose order pairs
    the edges, doubled ones of periodic extents 1 and 2 included); a
    rank program that repeats a sweep builds it once (:func:`halo_batch`).
    """
    if faces and comm.rank >= cart.size and min(faces)[1] in (-1, 1):
        cart.coords(comm.rank)      # off the grid: raises, before pairing
    table = halo_table(comm, cart, tuple(faces))
    send_keys, dests, recvs, keys = table.row(comm.rank) \
        if comm.rank < len(table) else ((), (), (), ())
    if cart.size > comm.size:       # a peer may lie outside the comm
        for peer in dests + recvs:
            comm._check_peer(peer)
    op = Exchange(sends=tuple(zip(dests, map(faces.__getitem__, send_keys))),
                  recvs=recvs, tag=tag, comm_id=comm.comm_id, label=label)
    return op, keys


def halo_batch(comm: Comm, cart: CartGrid,
               faces: dict[tuple[int, int], Any], tag: int = 100,
               label: str = "p2p"):
    """:func:`halo_exchange_op` as ``(ops, keys)`` to splice into a
    batch: ``ops`` is ``(op,)``, or ``()`` for a rank without
    neighbours -- the one place the "nothing to exchange, no op" rule
    lives (a face with a neighbour is sent *and* received: no keys, no
    edges)."""
    op, keys = halo_exchange_op(comm, cart, faces, tag=tag, label=label)
    return ((op,) if keys else ()), keys


def halo_exchange(comm: Comm, cart: CartGrid, faces: dict[tuple[int, int], Any],
                  tag_base: int = 100):
    """Exchange per-face payloads with Cartesian neighbours (generator;
    ``recv = yield from halo_exchange(...)``).

    ``faces`` maps ``(dim, direction)`` -- direction in {-1, +1} -- to the
    payload shipped to the neighbour in that direction; ``recv[(dim,
    d)]`` is what the neighbour in direction ``d`` sent towards us (the
    ghost data of our ``d``-side boundary).  All faces travel in one
    fused :class:`~repro.vmpi.ops.Exchange`, like the production stencil
    codes' neighbourhood collectives.
    """
    ops, keys = halo_batch(comm, cart, faces, tag=tag_base)
    results = (yield ops[0]) if ops else ()
    return dict(zip(keys, results))


def ghost_faces(field: np.ndarray, width: int = 1) -> dict[tuple[int, int], np.ndarray]:
    """Boundary slabs of ``field`` to ship in a halo exchange.

    For each dimension, the first/last ``width`` interior planes are
    copied out.
    """
    if width < 1:
        raise ValueError("halo width must be positive")
    out: dict[tuple[int, int], np.ndarray] = {}
    for dim in range(field.ndim):
        lo = [slice(None)] * field.ndim
        hi = [slice(None)] * field.ndim
        lo[dim] = slice(0, width)
        hi[dim] = slice(field.shape[dim] - width, field.shape[dim])
        out[(dim, -1)] = np.ascontiguousarray(field[tuple(lo)])
        out[(dim, +1)] = np.ascontiguousarray(field[tuple(hi)])
    return out


def phantom_faces(local_shape: tuple[int, ...], itemsize: int = 8,
                  width: int = 1) -> dict[tuple[int, int], Phantom]:
    """Size-only face payloads for model-only (large-scale) runs.

    A fresh dict each call, of :class:`~repro.vmpi.ops.Phantom` objects
    shared per ``(shape, itemsize, width)``: every rank of a job ships
    the same payload objects instead of building its own.
    """
    return dict(_phantom_faces(tuple(local_shape), itemsize, width))


@lru_cache(maxsize=64)
def _phantom_faces(local_shape: tuple[int, ...], itemsize: int,
                   width: int) -> dict[tuple[int, int], Phantom]:
    out: dict[tuple[int, int], Phantom] = {}
    for dim in range(len(local_shape)):
        area = width * itemsize
        for d, extent in enumerate(local_shape):
            if d != dim:
                area *= extent
        out[(dim, -1)] = Phantom(float(area))
        out[(dim, +1)] = Phantom(float(area))
    return out
