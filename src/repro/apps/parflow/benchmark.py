"""The ParFlow benchmark (Base 4 nodes; prepared, not used).

The ClayL test from ParFlow's suite: "simulating infiltration into clay
soil ... with a problem size of 1008 x 1008 x 240 cells" (Sec. IV).
Real mode runs genuine Richards infiltration (mass balance to 1e-8,
monotone wetting front) and the multigrid-preconditioned CG solver the
code is built on.  Timing mode charges Newton iterations x MGCG
iterations of 7-point stencil work over the 3D-decomposed domain.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import ModelVerifier
from ...vmpi import Phantom
from ...vmpi.decomposition import CartGrid, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .multigrid import mgcg_solve
from .richards import RichardsColumn

#: the ClayL problem size
DOMAIN = (1008, 1008, 240)
TIME_STEPS = 300
NEWTON_PER_STEP = 6
MGCG_PER_NEWTON = 15
#: stencil work per cell per linear-solver sweep (smoothing + residual)
FLOPS_PER_CELL = 60.0
BYTES_PER_CELL = 120.0


def parflow_timing_program(world, domain, steps: int, newton: int,
                           mgcg: int):
    """Phantom-cost Newton-Krylov stepping on the ClayL domain (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 3, extents=domain, periodic=False)
    cells_local = float(np.prod(domain)) / world.size
    local_dims = tuple(max(1, int(d / g)) for d, g in zip(domain, cart.dims))
    faces = phantom_faces(local_dims, itemsize=8)
    mgcg_iter = (world.compute(flops=FLOPS_PER_CELL * cells_local,
                               bytes_moved=BYTES_PER_CELL * cells_local,
                               efficiency=0.35, label="mgcg"),) \
        + world.halo(cart, faces) \
        + (world.allreduce(Phantom(16.0), label="cg-dot"),)
    # nonlinear residual + Jacobian setup, then the linear solve
    newton_iter = (world.compute(flops=3 * FLOPS_PER_CELL * cells_local,
                                 bytes_moved=3 * BYTES_PER_CELL * cells_local,
                                 efficiency=0.3, label="newton"),) \
        + mgcg_iter * mgcg
    return ((), newton_iter * newton, steps, ()), cells_local


class ParflowBenchmark(AppBenchmark):
    """Runnable ParFlow benchmark."""

    NAME = "ParFlow"
    fom = FigureOfMerit(name="ClayL infiltration runtime", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small, newton_small, mgcg_small = 1, 2, 3
        spmd = self.run_program(machine, parflow_timing_program,
                                args=(DOMAIN, steps_small, newton_small,
                                      mgcg_small))
        work_scale = (TIME_STEPS * NEWTON_PER_STEP * MGCG_PER_NEWTON) / \
            (steps_small * newton_small * mgcg_small)
        return self.result(
            nodes, spmd, fom_seconds=spmd.elapsed * work_scale,
            domain=DOMAIN, time_steps=TIME_STEPS,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        col = RichardsColumn.clay_column(nz=max(20, int(40 * scale)))
        diag = col.infiltrate(t_end=max(1.0, 2.0 * scale), dt=0.1)
        sat = col.soil.saturation(col.psi)
        front_monotone = bool(np.all(np.diff(sat[:len(sat) // 2]) <= 1e-9))
        n = 16
        rng = np.random.default_rng(4)
        _, iters, hist = mgcg_solve(rng.normal(size=(n, n, n)), 1.0 / n,
                                    tol=1e-8)
        verifier = ModelVerifier(checks={
            "mass_balance": (lambda r: r["balance"], 0.0, 1e-8),
            "mgcg_iters": (lambda r: float(r["iters"]), 1.0, 30.0),
            "front": (lambda r: 1.0 if r["front"] else 0.0, 1.0, 1.0),
        })
        check = verifier({"balance": diag["balance_error"], "iters": iters,
                          "front": front_monotone})

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            mass_balance=diag["balance_error"], mgcg_iterations=iters,
            infiltrated=diag["inflow"])
