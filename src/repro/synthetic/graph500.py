"""Graph500: BFS on Kronecker graphs (the graph-traversal dwarf).

The reference pipeline: generate a scale-s Kronecker graph (edgefactor
16, the official R-MAT probabilities), run breadth-first searches from
random roots, validate the parent arrays with the official checks
(root is its own parent; every parent edge exists; levels differ by
one), and report traversed edges per second (TEPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.benchmark import BenchmarkResult
from ..core.fom import FigureOfMerit, FomKind
from ..core.variants import MemoryVariant
from ..vmpi import Phantom
from ..vmpi.machine import Machine
from .base import SyntheticBenchmark

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

#: the official R-MAT block probabilities
KRON_A, KRON_B, KRON_C = 0.57, 0.19, 0.19
EDGEFACTOR = 16


def kronecker_edges(scale: int, edgefactor: int = EDGEFACTOR,
                    seed: int = 1) -> np.ndarray:
    """Generate the (2, m) edge list of a scale-``scale`` Kronecker
    graph -- the Graph500 reference generator, vectorised."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    n_edges = edgefactor << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    ab = KRON_A + KRON_B
    c_norm = KRON_C / (1.0 - ab)
    a_norm = KRON_A / ab
    for bit in range(scale):
        r1 = rng.random(n_edges)
        r2 = rng.random(n_edges)
        src_bit = r1 > ab
        dst_bit = (r2 > (c_norm * src_bit + a_norm * ~src_bit))
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    # permute vertex labels (the reference de-biasing step)
    perm = rng.permutation(1 << scale)
    return np.stack([perm[src], perm[dst]])


def build_csr(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetrised adjacency matrix without self loops."""
    import scipy.sparse as sp  # real mode only; timing runs never load it
    src, dst = edges
    keep = src != dst
    src, dst = src[keep], dst[keep]
    data = np.ones(2 * src.shape[0], dtype=np.int8)
    a = sp.coo_matrix((data, (np.concatenate([src, dst]),
                              np.concatenate([dst, src]))), shape=(n, n))
    a.sum_duplicates()
    return a.tocsr()


@dataclass
class BfsResult:
    """Parents, levels and the traversal statistics of one BFS."""

    parent: np.ndarray
    level: np.ndarray
    edges_traversed: int
    levels: int


def bfs(adj: sp.csr_matrix, root: int) -> BfsResult:
    """Level-synchronous BFS (frontier expansion on the CSR arrays)."""
    n = adj.shape[0]
    if not 0 <= root < n:
        raise ValueError("root outside the graph")
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    indptr, indices = adj.indptr, adj.indices
    depth = 0
    traversed = 0
    while frontier.size:
        # gather all neighbours of the frontier
        counts = indptr[frontier + 1] - indptr[frontier]
        traversed += int(counts.sum())
        neighbors = np.concatenate([indices[indptr[v]:indptr[v + 1]]
                                    for v in frontier]) if frontier.size \
            else np.empty(0, dtype=np.int64)
        sources = np.repeat(frontier, counts)
        fresh = parent[neighbors] == -1
        neighbors, sources = neighbors[fresh], sources[fresh]
        # first writer wins deterministically
        order = np.argsort(neighbors, kind="stable")
        neighbors, sources = neighbors[order], sources[order]
        first = np.ones(neighbors.shape[0], dtype=bool)
        first[1:] = neighbors[1:] != neighbors[:-1]
        neighbors, sources = neighbors[first], sources[first]
        parent[neighbors] = sources
        depth += 1
        level[neighbors] = depth
        frontier = neighbors
    return BfsResult(parent=parent, level=level,
                     edges_traversed=traversed // 2,
                     levels=int(level.max()))


def validate_bfs(adj: sp.csr_matrix, root: int, res: BfsResult) -> bool:
    """The Graph500 validation rules."""
    parent, level = res.parent, res.level
    if parent[root] != root or level[root] != 0:
        return False
    reached = np.nonzero(parent >= 0)[0]
    for v in reached:
        if v == root:
            continue
        p = parent[v]
        # the parent edge must exist ...
        row = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        if p not in row:
            return False
        # ... and levels must differ by exactly one
        if level[v] != level[p] + 1:
            return False
    # every edge must connect vertices at most one level apart (within
    # the reached component)
    coo = adj.tocoo()
    both = (parent[coo.row] >= 0) & (parent[coo.col] >= 0)
    if np.any(np.abs(level[coo.row[both]] - level[coo.col[both]]) > 1):
        return False
    return True


def graph500_timing_program(comm, scale: int, bfs_runs: int):
    """Distributed BFS cost: per level an alltoall of frontier updates
    plus local edge processing (latency- and bisection-bound)."""
    n_vertices = float(1 << scale)
    n_edges = n_vertices * EDGEFACTOR
    edges_local = n_edges / comm.size
    levels = max(4, scale // 2)
    for _run in range(bfs_runs):
        for _level in range(levels):
            yield comm.compute(flops=10.0 * edges_local / levels,
                               bytes_moved=16.0 * edges_local / levels,
                               efficiency=0.05,  # irregular access
                               label="edge-processing")
            yield comm.alltoall(
                tuple(Phantom(8.0 * n_vertices / comm.size ** 2)
                      for _ in range(comm.size)),
                label="frontier-exchange")
    return edges_local


class Graph500Benchmark(SyntheticBenchmark):
    """Runnable Graph500 benchmark (TEPS FOM)."""

    NAME = "Graph500"
    fom = FigureOfMerit(name="traversed edges per second",
                        kind=FomKind.RATE, work=1e9, unit="TEPS")
    SCALE_FULL = 36

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            s = max(8, int(12 * scale))
            edges = kronecker_edges(s)
            adj = build_csr(edges, 1 << s)
            rng = np.random.default_rng(7)
            ok = True
            traversed = 0
            for _ in range(3):
                root = int(rng.integers(1 << s))
                res = bfs(adj, root)
                ok = ok and validate_bfs(adj, root, res)
                traversed += res.edges_traversed

            def tiny(comm):
                yield comm.barrier()

            spmd = self.run_program(machine, tiny)
            return self.result(
                nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                verified=ok,
                verification="official parent/level checks passed" if ok
                else "BFS validation FAILED",
                graph_scale=s, edges_traversed=traversed)
        spmd = self.run_program(machine, graph500_timing_program,
                                args=(self.SCALE_FULL, 2))
        n_edges = EDGEFACTOR * (1 << self.SCALE_FULL)
        teps = 2 * n_edges / spmd.elapsed
        return self.result(nodes, spmd,
                           fom_seconds=self.fom.time_metric(teps),
                           teps=teps, graph_scale=self.SCALE_FULL,
                           comm_seconds=spmd.comm_seconds)
