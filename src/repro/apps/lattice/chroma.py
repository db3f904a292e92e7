"""The Chroma-QCD benchmark (Base 8 nodes, High-Scaling 512 S/M/L).

Workload (Sec. IV-A2b): HMC update trajectories with 3+1 flavours of
clover Wilson fermions and the Lüscher-Weisz gauge action on a 4D
lattice initialised with random SU(3) links.  "The relevant metric (FOM)
is the total time spent in HMC updates, excluding the first update,
which includes overhead for tuning QUDA parameters.  So a minimum of two
updates must be prescribed."

Real mode runs genuine pure-gauge HMC plus a distributed-vs-serial
plaquette cross check at the Base tolerance of 1e-10 (the fermion force
enters the timing model only; see DESIGN.md).  Timing mode charges the
full 4D-decomposed cost profile: per MD step a gauge force and a
fixed-iteration CG whose Dslash applications exchange spin-projected
halos in all four directions -- "performance is sensitive to the
decomposition configuration", which :func:`~repro.vmpi.decomposition.
dims_create` chooses surface-optimally.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import ToleranceVerifier
from ...vmpi import Phantom
from ...vmpi.decomposition import CartGrid, dims_create, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark, pow2_floor
from .cg import conjugate_gradient
from .dirac import WilsonDirac, lattice_bytes_per_site, random_spinor
from .gauge import GaugeAction, GaugeField, average_plaquette, plaquette_field
from .hmc import run_hmc
from .su3 import trace

#: production-profile iteration counts (charged analytically)
MD_STEPS = 15
CG_ITERATIONS = 120
TRAJECTORIES = 3  # 1 tuning + 2 measured (the required minimum)
#: spin-projected halo payload per boundary site (2-spinor, 6 complex)
HALO_BYTES_PER_SITE = 96
#: Dslash arithmetic per site (Wilson, 4D)
DSLASH_FLOPS_PER_SITE = 1464.0
DSLASH_BYTES_PER_SITE = 2880.0
#: gauge force arithmetic per site (staples in 4 directions)
FORCE_FLOPS_PER_SITE = 15000.0

BASE_TOLERANCE = 1e-10
HIGHSCALE_TOLERANCE = 1e-8


def local_lattice_dims(bytes_per_device: float) -> tuple[int, int, int, int]:
    """Per-GPU lattice block filling the given memory (even extents,
    near-hypercubic)."""
    sites = bytes_per_device / lattice_bytes_per_site()
    edge = int(sites ** 0.25)
    edge -= edge % 2  # even extents keep even-odd preconditioning valid
    edge = max(edge, 2)
    return (edge, edge, edge, edge)


def chroma_timing_program(world, local_dims: tuple[int, int, int, int],
                          trajectories: int, md_steps: int, cg_iters: int):
    """Phantom-cost HMC trajectories on a 4D-decomposed lattice (a job
    program, :mod:`repro.vmpi.job`).

    Each rank owns ``local_dims`` sites; one MD step = gauge force +
    fermion CG (two Dslash halo exchanges + three reductions per
    iteration).  Returns the number of charged Dslash applications.
    """
    cart = CartGrid.for_ranks(world.size, 4, periodic=True)
    faces = phantom_faces(local_dims, itemsize=HALO_BYTES_PER_SITE)
    local_sites = float(np.prod(local_dims))
    force = world.compute(flops=FORCE_FLOPS_PER_SITE * local_sites,
                          bytes_moved=600.0 * local_sites,
                          efficiency=0.30, label="gauge-force")
    dslash = world.halo(cart, faces) + (
        world.compute(flops=DSLASH_FLOPS_PER_SITE * local_sites,
                      bytes_moved=DSLASH_BYTES_PER_SITE * local_sites,
                      efficiency=0.35, label="dslash"),)
    reduce = world.allreduce(Phantom(16.0), label="cg-reduce")
    cg_iter = dslash * 2 + (reduce, reduce)  # D then D^+, two dots
    trajectory = ((force,) + cg_iter * cg_iters) * md_steps + (
        world.allreduce(Phantom(8.0), label="metropolis"),)
    return ((), trajectory, trajectories, ()), \
        trajectories * md_steps * cg_iters * 2


def verification_program(comm, gauge: GaugeField):
    """Distributed plaquette: slab-sum cross-checked against the serial
    implementation (generator; returns the global average)."""
    t_extent = gauge.dims[0]
    from ...vmpi.decomposition import block_partition

    lo, hi = block_partition(t_extent, comm.size)[comm.rank]
    local = 0.0
    for mu in range(4):
        for nu in range(mu + 1, 4):
            p = plaquette_field(gauge.u, mu, nu)
            local += float(np.sum(trace(p[lo:hi]).real)) / 3.0
    total = yield comm.allreduce(np.array([local]))
    return float(total[0]) / (6 * gauge.volume)


class ChromaBenchmark(AppBenchmark):
    """Runnable Chroma-QCD benchmark."""

    NAME = "Chroma-QCD"
    fom = FigureOfMerit(name="HMC update time (excl. first)", unit="s")

    #: real-mode lattice (kept small; scaled by ``scale``)
    REAL_DIMS = (8, 4, 4, 4)

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        ranks = pow2_floor(nodes * 4)  # power-of-two decomposition
        used_nodes = max(1, ranks // 4)
        machine = self.machine(used_nodes, ranks_per_node=min(4, ranks))
        v = self.variant_or_default(variant)
        if real:
            return self._execute_real(used_nodes, machine, v, scale)
        weak = variant is not None or used_nodes >= 64
        return self._execute_timing(used_nodes, machine, v, weak)

    def _execute_timing(self, nodes: int, machine: Machine,
                        variant: MemoryVariant,
                        weak: bool) -> BenchmarkResult:
        clamped = False
        if weak:
            # High-Scaling rule: per-GPU volume pinned by the variant
            local_dims = local_lattice_dims(self.device_bytes(variant))
        else:
            # Base rule: the workload is fixed at the 8-node reference
            # size and strong-scaled; if it exceeds device memory the
            # run is clamped (cf. the Arbor 4-node point).
            ref_local = local_lattice_dims(self.device_bytes(variant))
            total_sites = float(np.prod(ref_local)) * \
                self.info.reference_nodes * 4
            per_gpu = total_sites / machine.nranks
            capacity = float(np.prod(ref_local))
            clamped = per_gpu > capacity
            per_gpu = min(per_gpu, capacity)
            edge = max(2, round(per_gpu ** 0.25))
            local_dims = (edge,) * 4
        # run a reduced, strictly proportional schedule and scale the FOM
        md_small, cg_small = 2, 4
        total = self.run_program(
            machine, chroma_timing_program,
            args=(local_dims, TRAJECTORIES, md_small, cg_small))
        first = self.run_program(
            machine, chroma_timing_program,
            args=(local_dims, 1, md_small, cg_small))
        measured = total.elapsed - first.elapsed  # excludes the first update
        work_scale = (MD_STEPS * CG_ITERATIONS) / (md_small * cg_small)
        if not weak and clamped:
            measured *= 1.3  # at-the-memory-limit degradation
        global_sites = int(np.prod(local_dims)) * machine.nranks
        return self.result(
            nodes, total, variant=variant,
            fom_seconds=measured * work_scale,
            workload_clamped=(not weak and clamped),
            local_dims=local_dims, global_sites=global_sites,
            exceeds_int32=global_sites > 2 ** 31,
            md_steps=MD_STEPS, cg_iterations=CG_ITERATIONS,
            decomposition=dims_create(machine.nranks, 4),
            compute_seconds=total.compute_seconds,
            comm_seconds=total.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      variant: MemoryVariant, scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(2024)
        t_extent = max(machine.nranks, int(8 * scale))
        dims = (t_extent, 4, 4, 4)
        gauge = GaugeField.hot(dims, rng)
        # genuine HMC (pure gauge; see module docstring)
        action = GaugeAction.luscher_weisz(beta=5.7)
        evolved, hmc = run_hmc(gauge, action, rng,
                               trajectories=TRAJECTORIES, steps=6, dt=0.02)
        # distributed-vs-serial plaquette at the Base tolerance
        spmd = self.run_program(machine, verification_program,
                                args=(evolved,))
        serial = average_plaquette(evolved)
        verifier = ToleranceVerifier(reference=[serial], rtol=BASE_TOLERANCE)
        check = verifier([spmd.values[0]])
        # one real fermion solve on the evolved configuration
        dirac = WilsonDirac(evolved, kappa=0.115, c_sw=1.0)
        cg = conjugate_gradient(dirac.normal_apply,
                                random_spinor(rng, dims),
                                tol=1e-8, max_iter=400)
        return self.result(
            nodes, spmd, variant=variant,
            verified=bool(check) and cg.converged and hmc.acceptance > 0,
            verification=f"{check.detail}; CG {cg.iterations} iters to "
                         f"{cg.residual:.1e}; HMC acceptance {hmc.acceptance:.2f}",
            plaquette=serial, acceptance=hmc.acceptance,
            mean_abs_dh=hmc.mean_abs_dh, cg_iterations=cg.iterations)
