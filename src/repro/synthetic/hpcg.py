"""HPCG: conjugate gradients with a symmetric Gauss-Seidel smoother.

The "how machines really perform on sparse work" counterpoint to HPL:
CG on a 27-point stencil over a 3D grid, preconditioned with symmetric
Gauss-Seidel.  The real implementation builds the genuine sparse
operator (scipy CSR), runs preconditioned CG, and checks the residual
reduction HPCG requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.benchmark import BenchmarkResult
from ..core.fom import FigureOfMerit
from ..core.variants import MemoryVariant
from ..units import register_dims
from ..vmpi import Phantom
from ..vmpi.decomposition import CartGrid, phantom_faces
from .base import SyntheticBenchmark

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: ITERATIONS is a count, so ``elapsed * (ITERATIONS / measured)``
#: extrapolations stay provably seconds
DIMS = register_dims(__name__, {
    "HpcgBenchmark.ITERATIONS": "1",
})


def build_27pt(n: int) -> sp.csr_matrix:
    """The HPCG operator: 27-point stencil, diagonal 26, off-diagonal
    -1, on an n^3 grid with Dirichlet truncation at the boundary."""
    import scipy.sparse as sp  # real mode only; timing runs never load it
    if n < 2:
        raise ValueError("grid must be at least 2^3")
    idx = np.arange(n ** 3).reshape(n, n, n)
    rows, cols = [], []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dz == dy == dx == 0:
                    continue
                src = idx[max(0, -dz):n - max(0, dz),
                          max(0, -dy):n - max(0, dy),
                          max(0, -dx):n - max(0, dx)]
                dst = idx[max(0, dz):n + min(0, dz),
                          max(0, dy):n + min(0, dy),
                          max(0, dx):n + min(0, dx)]
                rows.append(src.ravel())
                cols.append(dst.ravel())
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = -np.ones(r.shape[0])
    a = sp.coo_matrix((data, (r, c)), shape=(n ** 3, n ** 3))
    a = a + sp.diags(np.full(n ** 3, 26.0))
    return a.tocsr()


def symgs(a: sp.csr_matrix, r: np.ndarray) -> np.ndarray:
    """One symmetric Gauss-Seidel application M^-1 r (forward sweep then
    backward sweep via triangular solves)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    lower = sp.tril(a, 0).tocsr()
    upper = sp.triu(a, 0).tocsr()
    d = a.diagonal()
    y = spla.spsolve_triangular(lower, r, lower=True)
    return spla.spsolve_triangular(upper, d * y, lower=False)


def hpcg_cg(a: sp.csr_matrix, b: np.ndarray, iterations: int = 50
            ) -> tuple[np.ndarray, list[float]]:
    """Preconditioned CG, fixed iteration count (the HPCG structure)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = symgs(a, r)
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    history = [1.0]
    for _ in range(iterations):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        history.append(float(np.linalg.norm(r)) / b_norm)
        z = symgs(a, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


def hpcg_timing_program(world, local_n: int, iterations: int):
    """Distributed HPCG: per iteration a SpMV + SymGS (both halo-
    exchanging, strictly memory-bound) and two dot reductions (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 3, periodic=False)
    rows = float(local_n ** 3)
    faces = phantom_faces((local_n, local_n, local_n), itemsize=8)
    halo = world.halo(cart, faces)
    dot = world.allreduce(Phantom(16.0), label="dot")
    iteration = ()
    for label, passes in (("spmv", 1.0), ("symgs", 2.0)):
        iteration += halo + (
            world.compute(flops=passes * 54.0 * rows,
                          bytes_moved=passes * 27.0 * 12.0 * rows,
                          efficiency=0.7, label=label),)
    iteration += (dot, dot)
    return ((), iteration, iterations, ()), rows


class HpcgBenchmark(SyntheticBenchmark):
    """Runnable HPCG benchmark."""

    NAME = "HPCG"
    fom = FigureOfMerit(name="HPCG solve runtime", unit="s")
    ITERATIONS = 50

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            n = max(8, int(16 * scale))
            a = build_27pt(n)
            rng = np.random.default_rng(2)
            b = rng.normal(size=n ** 3)
            x, history = hpcg_cg(a, b, iterations=25)
            reduction = history[-1]
            ok = reduction < 1e-6 and bool(
                np.all(np.diff(history) <= 1e-12))

            def tiny(comm):
                yield comm.barrier()

            spmd = self.run_program(machine, tiny)
            return self.result(
                nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                verified=ok,
                verification=f"residual reduced to {reduction:.2e} "
                             "monotonically",
                grid=n, residual_reduction=reduction)
        local_n = 192  # HPCG-typical local block on a 40 GB GPU
        spmd = self.run_program(machine, hpcg_timing_program,
                                args=(local_n, 4))
        fom = spmd.elapsed * (self.ITERATIONS / 4)
        return self.result(nodes, spmd, fom_seconds=fom,
                           local_grid=local_n,
                           compute_seconds=spmd.compute_seconds,
                           comm_seconds=spmd.comm_seconds)
