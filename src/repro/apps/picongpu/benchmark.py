"""The PIConGPU benchmark (Base 4 nodes; High-Scaling 640, S/M/L).

Workload (Sec. IV-A2e): a 3D Kelvin-Helmholtz instability (KHI) in
pre-ionised hydrogen with periodic boundaries; 25 particles per cell,
grid (4096, 2048, 1024) for S, (4096, 2048, 2048) M, (4096, 4096, 2560)
L.  "To distribute along these three dimensions, the maximum number of
nodes that can be utilized is limited to 640, rather than 642."  The
shear flow "does not impose a significant load imbalance", so
performance follows the code structure, not the physics -- which is why
a phantom-cost structural model is faithful here.

Real mode runs a genuine (small, 2D) KHI PIC simulation: counter-
streaming slabs, full deposit-solve-gather-push loop, verified by exact
charge conservation and bounded total energy (the framework-inherent
class of Sec. V-A).
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import FrameworkVerifier
from ...vmpi.decomposition import CartGrid, dims_create, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .fields import YeeGrid2D
from .particles import (
    ParticleSpecies,
    advance_positions,
    boris_push,
    deposit_charge,
    deposit_current,
    gather_fields,
)

#: the paper's grids per memory variant
GRIDS = {
    MemoryVariant.SMALL: (4096, 2048, 1024),
    MemoryVariant.MEDIUM: (4096, 2048, 2048),
    MemoryVariant.LARGE: (4096, 4096, 2560),
}
PARTICLES_PER_CELL = 25
#: hard node-count cap from the 3D decomposition
MAX_NODES = 640
FOM_STEPS = 2000
#: Base workload: the fixed grid for the 4-node reference execution
#: (same cells-per-GPU density as the S variant at 640 nodes)
BASE_GRID = (512, 512, 208)
#: bytes per macro-particle on device (position, momentum, id, fields)
BYTES_PER_PARTICLE = 64.0
BYTES_PER_CELL = 9 * 4.0  # E, B, J single precision


def picongpu_timing_program(world, grid: tuple[int, int, int], steps: int):
    """Phantom-cost KHI stepping on a 3D-decomposed domain (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 3, extents=grid, periodic=True)
    cells_local = float(np.prod(grid)) / world.size
    particles_local = cells_local * PARTICLES_PER_CELL
    local_dims = tuple(int(g / d) for g, d in zip(grid, cart.dims))
    # field halos: 2 ghost layers of E/B/J, plus particle migration
    faces = phantom_faces(local_dims, itemsize=int(BYTES_PER_CELL * 2))
    step = (
        world.compute(flops=particles_local * 230.0,
                      bytes_moved=particles_local * BYTES_PER_PARTICLE,
                      efficiency=0.18, label="push-deposit"),
        world.compute(flops=cells_local * 80.0,
                      bytes_moved=cells_local * BYTES_PER_CELL * 2,
                      efficiency=0.4, label="fdtd"),
    ) + world.halo(cart, faces)
    return ((), step, steps, ()), particles_local


def khi_setup_2d(nx: int, ny: int, ppc: int, shear_u: float,
                 rng: np.random.Generator) -> ParticleSpecies:
    """Counter-streaming electron slabs (2D KHI initial condition)."""
    n = nx * ny * ppc
    x = rng.random((n, 2)) * [nx, ny]
    u = rng.normal(scale=0.01, size=(n, 2))
    # upper half streams +x, lower half -x
    sign = np.where(x[:, 1] > ny / 2.0, 1.0, -1.0)
    u[:, 0] += sign * shear_u
    return ParticleSpecies(x=x, u=u, charge=-1.0 / ppc, mass=1.0 / ppc)


def run_khi_2d(nx: int = 32, ny: int = 32, ppc: int = 4, steps: int = 60,
               shear_u: float = 0.2, seed: int = 9) -> dict[str, object]:
    """A real (small) 2D PIC loop; returns conservation diagnostics."""
    rng = np.random.default_rng(seed)
    grid = YeeGrid2D(nx=nx, ny=ny)
    species = khi_setup_2d(nx, ny, ppc, shear_u, rng)
    dt = grid.courant_dt() * 0.5
    charge0 = float(np.sum(deposit_charge(species, nx, ny, 1.0, 1.0)))
    energies = []
    charge_err = 0.0
    for _ in range(steps):
        ex, ey, bz = gather_fields(species, grid.ex, grid.ey, grid.bz,
                                   1.0, 1.0)
        boris_push(species, ex, ey, bz, dt)
        advance_positions(species, dt, float(nx), float(ny))
        jx, jy = deposit_current(species, nx, ny, 1.0, 1.0)
        grid.step_b(dt / 2)
        grid.step_e(dt, jx, jy)
        grid.step_b(dt / 2)
        rho = deposit_charge(species, nx, ny, 1.0, 1.0)
        charge_err = max(charge_err,
                         abs(float(np.sum(rho)) - charge0))
        energies.append(grid.energy() + species.kinetic_energy())
    return {
        "charge_error": charge_err,
        "energy_series": energies,
        "energy_growth": energies[-1] / max(energies[0], 1e-30),
        "particles": species.n,
    }


class PicongpuBenchmark(AppBenchmark):
    """Runnable PIConGPU benchmark."""

    NAME = "PIConGPU"
    fom = FigureOfMerit(name="KHI stepping runtime", unit="s")
    DEFAULT_VARIANT = MemoryVariant.SMALL

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        if nodes > MAX_NODES:
            nodes = MAX_NODES  # the 3D-decomposition cap
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        v = self.variant_or_default(variant)
        if variant is None and nodes < 64:
            # Base regime: the fixed 4-node reference workload, strong-
            # scaled over the requested nodes (Fig. 2).
            grid = BASE_GRID
        else:
            # High-Scaling regime: constant work per GPU -- the variant
            # grid is defined for 640 nodes; smaller/larger jobs scale
            # every extent isotropically so cells-per-GPU stays fixed
            # (Fig. 3's weak-scaling rule).
            gx, gy, gz = GRIDS[v]
            factor = (nodes / MAX_NODES) ** (1.0 / 3.0)
            grid = tuple(max(8, int(round(g * factor / 8)) * 8)
                         for g in (gx, gy, gz))
        steps_small = 3
        spmd = self.run_program(machine, picongpu_timing_program,
                                args=(grid, steps_small))
        fom = spmd.elapsed * (FOM_STEPS / steps_small)
        return self.result(
            nodes, spmd, variant=v, fom_seconds=fom,
            grid=grid, particles=float(np.prod(grid)) * PARTICLES_PER_CELL,
            decomposition=dims_create(machine.nranks, 3, extents=grid),
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        size = max(16, int(32 * scale))
        diag = run_khi_2d(nx=size, ny=size, steps=max(20, int(60 * scale)))
        verifier = FrameworkVerifier(required_keys=("charge_error",
                                                    "energy_growth"))
        base = verifier(diag)
        ok = bool(base) and diag["charge_error"] < 1e-9 and \
            diag["energy_growth"] < 2.0

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=ok,
            verification=f"charge error {diag['charge_error']:.2e}; "
                         f"energy growth x{diag['energy_growth']:.3f}",
            particles=diag["particles"])
