"""The DynQCD benchmark (CPU-only, Base 8 Cluster nodes).

Workload: "generates 600 quark propagators using a conjugate gradient
solver for sparse LQCD fermion matrices, with high demands to the memory
sub-system" -- i.e. repeated fixed-iteration CG solves of the Wilson
system, memory-bandwidth-bound on the CPU module.

Real mode performs genuine (scaled-down) propagator solves with the
shared Wilson operator and verifies the residuals; timing mode charges
the 600-solve schedule with a strongly bandwidth-limited compute profile
(low arithmetic efficiency, high bytes/site), which is what
distinguishes this benchmark's hardware demands from Chroma's
GPU-tensor-friendly profile.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...vmpi import Phantom
from ...vmpi.decomposition import CartGrid, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark, pow2_floor
from .cg import conjugate_gradient
from .dirac import WilsonDirac, random_spinor
from .gauge import GaugeField

#: the benchmark's propagator count
PROPAGATORS = 600
#: fixed CG iteration cutoff per propagator (robustness rule, Sec. V-B)
CG_ITERATIONS = 250
#: per-CPU-rank local lattice (memory-per-socket sized)
LOCAL_DIMS = (16, 16, 16, 8)
HALO_BYTES_PER_SITE = 96
DSLASH_FLOPS_PER_SITE = 1464.0
#: CPU Dslash is memory-bound: ~2.9 KB of traffic per site
DSLASH_BYTES_PER_SITE = 2880.0


def dynqcd_timing_program(world, local_dims, propagators: int, cg_iters: int):
    """Phantom-cost propagator generation on the CPU module (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 4, periodic=True)
    faces = phantom_faces(local_dims, itemsize=HALO_BYTES_PER_SITE)
    local_sites = float(np.prod(local_dims))
    dslash = world.halo(cart, faces) + (
        world.compute(flops=DSLASH_FLOPS_PER_SITE * local_sites,
                      bytes_moved=DSLASH_BYTES_PER_SITE * local_sites,
                      efficiency=0.65, label="dslash"),)  # bandwidth-bound
    reduce = world.allreduce(Phantom(16.0), label="cg-reduce")
    propagator = (dslash * 2 + (reduce, reduce)) * cg_iters
    return ((), propagator, propagators, ()), propagators * cg_iters


class DynqcdBenchmark(AppBenchmark):
    """Runnable DynQCD benchmark (JUWELS Cluster target)."""

    NAME = "DynQCD"
    fom = FigureOfMerit(name="600-propagator runtime", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        ranks = pow2_floor(nodes * 2)  # 2 sockets per Cluster node
        used_nodes = max(1, ranks // 2)
        machine = Machine.on(self.system().with_nodes(max(used_nodes, 1)),
                             nranks=ranks, ranks_per_node=min(2, ranks))
        if real:
            return self._execute_real(used_nodes, machine, scale)
        # Fixed Base workload (sized for the 8-node / 16-socket
        # reference), strong-scaled over the job's ranks.
        total_sites = float(np.prod(LOCAL_DIMS)) * \
            self.info.reference_nodes * 2
        edge = max(2, int((total_sites / machine.nranks) ** 0.25))
        local_dims = (edge,) * 4
        # reduced proportional schedule, scaled to the full 600 x 250
        props_small, iters_small = 2, 3
        spmd = self.run_program(
            machine, dynqcd_timing_program,
            args=(local_dims, props_small, iters_small))
        work_scale = (PROPAGATORS * CG_ITERATIONS) / (props_small * iters_small)
        return self.result(
            used_nodes, spmd, fom_seconds=spmd.elapsed * work_scale,
            propagators=PROPAGATORS, cg_iterations=CG_ITERATIONS,
            local_dims=LOCAL_DIMS,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(600)
        dims = (8, 4, 4, 4)
        gauge = GaugeField.hot(dims, rng)
        dirac = WilsonDirac(gauge, kappa=0.118)
        n_props = max(2, int(6 * scale))
        residuals = []
        for _ in range(n_props):
            src = random_spinor(rng, dims)
            res = conjugate_gradient(dirac.normal_apply, src,
                                     tol=1e-8, max_iter=500)
            residuals.append(res.residual)
        ok = all(r <= 1e-8 for r in residuals)

        def tiny_program(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny_program)
        return self.result(
            nodes, spmd,
            fom_seconds=max(spmd.elapsed, 1e-6),
            verified=ok,
            verification=f"{n_props} propagators solved; worst residual "
                         f"{max(residuals):.2e}",
            propagators=n_props, residuals=residuals)
