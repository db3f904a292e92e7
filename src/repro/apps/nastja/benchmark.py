"""The NAStJA benchmark (Base 8 nodes, CPU-only).

Workload (Sec. IV-A1f): "the first 5050 Monte Carlo steps of a system
of size 720 x 720 x 1152 um^3, containing roughly 600 000 cells" --
adhesion-driven cell sorting at subcellular resolution.  "NAStJA ...
is one of the few CPU-only benchmarks in the suite.  The application
exhibits an irregular memory access pattern at each iteration, which is
not suitable for GPU execution" -- modelled as a very low-efficiency,
byte-dominated compute profile on the Cluster module, with block halo
exchange each sweep.

Real mode runs genuine 2D cell sorting and verifies that the total
energy falls and the heterotypic contact fraction decreases (the
sorting signature).
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import ModelVerifier
from ...vmpi.decomposition import CartGrid, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .potts import checkerboard_tissue

#: the paper's domain (voxels at 1 um resolution) and step count
DOMAIN = (720, 720, 1152)
MC_STEPS = 5050
CELL_COUNT = 600_000
#: per-voxel cost of one MC sweep: neighbour reads + RNG + energy
FLOPS_PER_VOXEL = 120.0
BYTES_PER_VOXEL = 160.0


def nastja_timing_program(world, domain: tuple[int, int, int], steps: int):
    """Block-decomposed MC sweeps with per-sweep halo exchange (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 3, extents=domain, periodic=False)
    voxels_local = float(np.prod(domain)) / world.size
    local_dims = tuple(max(1, int(d / g))
                       for d, g in zip(domain, cart.dims))
    faces = phantom_faces(local_dims, itemsize=8)
    step = (world.compute(flops=FLOPS_PER_VOXEL * voxels_local,
                          bytes_moved=BYTES_PER_VOXEL * voxels_local,
                          efficiency=0.08,  # irregular access pattern
                          label="mc-sweep"),) + world.halo(cart, faces)
    return ((), step, steps, ()), voxels_local


class NastjaBenchmark(AppBenchmark):
    """Runnable NAStJA benchmark (JUWELS Cluster target)."""

    NAME = "NAStJA"
    fom = FigureOfMerit(name="5050-MC-step runtime", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        system = self.system()
        machine = Machine.on(system.with_nodes(max(nodes, 1)),
                             nranks=nodes * 2, ranks_per_node=2)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 4
        spmd = self.run_program(machine, nastja_timing_program,
                                args=(DOMAIN, steps_small))
        fom = spmd.elapsed * (MC_STEPS / steps_small)
        return self.result(
            nodes, spmd, fom_seconds=fom, domain=DOMAIN,
            mc_steps=MC_STEPS, cells=CELL_COUNT,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        n = max(24, int(40 * scale))
        model = checkerboard_tissue(n=n, cells_per_side=4, ndim=2, seed=3)
        e0 = model.total_energy()
        hetero0 = model.heterotypic_fraction()
        steps = max(4, int(12 * scale))
        accepts = sum(model.monte_carlo_step() for _ in range(steps))
        e1 = model.total_energy()
        hetero1 = model.heterotypic_fraction()
        # At finite temperature the total energy is not monotone (thermal
        # boundary roughening competes with sorting); the sorting order
        # parameter is the model prediction to verify.
        verifier = ModelVerifier(checks={
            "energy_bounded": (lambda r: r["e1"] / r["e0"], 0.0, 1.5),
            "sorting": (lambda r: r["h1"] / max(r["h0"], 1e-12), 0.0, 0.97),
            "acceptance": (lambda r: r["acc"], 1e-4, 0.9),
        })
        check = verifier({"e0": e0, "e1": e1, "h0": hetero0, "h1": hetero1,
                          "acc": accepts / (steps * model.lattice.size)})

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            energy_before=e0, energy_after=e1,
            heterotypic_before=hetero0, heterotypic_after=hetero1)
