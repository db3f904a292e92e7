"""The GROMACS benchmark (Base; test cases A and C).

Two UEABS-derived systems (Sec. IV-A1a):

* **Case A** -- a GluCl ion channel in a membrane, ~150k atoms,
  reference 3 nodes;
* **Case C** -- 27 replicas of the Satellite Tobacco Mosaic Virus,
  ~28 million atoms, reference 128 nodes, designed to "test the
  scalability of system-supplied Fast Fourier Transform libraries"
  (the PME long-range electrostatics).

Real mode integrates a genuine charged LJ melt with full Ewald
electrostatics and applies the model-based verification of Sec. V-A
(energy drift band, momentum conservation).  Timing mode charges the
production profile: 3D domain decomposition with position/force halos,
short-range pair kernels, and the PME mesh pipeline whose distributed
3D FFT performs rank-count-squared alltoall transposes -- the
communication pattern that limits case C at scale.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit, FomKind
from ...core.variants import MemoryVariant
from ...core.verification import ModelVerifier
from ...vmpi import Phantom
from ...vmpi.decomposition import CartGrid, phantom_faces
from ..base import AppBenchmark
from .engine import MdEngine, MdSystem
from .forcefield import EwaldParams, LjParams

#: the two test cases: atom counts and reference nodes
CASES = {
    "A": {"atoms": 150_000, "nodes": 3},
    "C": {"atoms": 27 * 1_067_095, "nodes": 128},
}
#: MD steps the FOM charges (converted from the ns/day rate)
FOM_STEPS = 50_000
#: average interacting neighbours per atom at biomolecular density
NEIGHBORS_PER_ATOM = 80.0
#: arithmetic per pair interaction (LJ + PME real space)
FLOPS_PER_PAIR = 55.0
#: bytes per atom crossing a halo (position + force, single precision+idx)
HALO_BYTES_PER_ATOM = 40.0


def gromacs_timing_program(world, atoms_total: int, steps: int,
                           fft_grid: int):
    """One domain-decomposed MD step-loop with PME (phantom costs; a job
    program, :mod:`repro.vmpi.job`).

    The distributed 3D FFT uses a 2D *pencil* decomposition: ranks form
    a near-square (rows x cols) grid and each transpose is an alltoall
    within a row or column subgroup of ~sqrt(P) ranks -- the structure
    that makes PME latency-tolerable at small payloads and
    bandwidth-bound at case-C scale.
    """
    cart = CartGrid.for_ranks(world.size, 3, periodic=True)
    atoms_local = atoms_total / world.size
    # boundary shell ~ surface fraction of the local box
    edge = max(atoms_local ** (1.0 / 3.0), 1.0)
    local_dims = (int(edge) + 1,) * 3
    faces = phantom_faces(local_dims, itemsize=int(HALO_BYTES_PER_ATOM))
    # pencil grid for the FFT transposes
    rows = int(np.sqrt(world.size))
    while world.size % rows != 0:
        rows -= 1
    cols = world.size // rows
    rank = np.arange(world.size)
    row_split, row_comm = world.split(rank // cols)
    col_split, col_comm = world.split(rank % cols)
    # PME mesh pencil per rank (complex64 after r2c)
    grid_local_bytes = (fft_grid ** 3 / world.size) * 8.0
    halo = world.halo(cart, faces)
    fft = world.compute(
        flops=2.5 * (fft_grid ** 3 / world.size) * np.log2(max(fft_grid, 2)),
        bytes_moved=grid_local_bytes * 2.0, efficiency=0.10, label="pme-fft")
    # personalised transposes: a share of the pencil to each peer
    row_t, col_t = (
        (sub.alltoall(grid_local_bytes / sub.size, label="pme-fft"), fft)
        for sub in (row_comm, col_comm))
    step = (
        # position halo, short-range kernel, force halo
        halo
        + (world.compute(
            flops=atoms_local * NEIGHBORS_PER_ATOM * FLOPS_PER_PAIR,
            bytes_moved=atoms_local * 200.0,
            efficiency=0.02, label="pair-forces"),)
        + halo
        # PME: spread, forward 3D FFT (row + col transpose), k-space
        # multiply, inverse FFT (col + row transpose), gather
        + (world.compute(flops=atoms_local * 300.0,
                         bytes_moved=atoms_local * 100.0,
                         efficiency=0.05, label="pme-spread"),)
        + row_t + col_t + col_t + row_t
        + (world.compute(flops=atoms_local * 300.0,
                         bytes_moved=atoms_local * 100.0,
                         efficiency=0.05, label="pme-gather"),
           # integration + constraints (memory-bound)
           world.compute(flops=atoms_local * 60.0,
                         bytes_moved=atoms_local * 72.0,
                         efficiency=0.6, label="integrate")))
    # end-of-run global reduction (energies)
    energies = world.allreduce(Phantom(64.0), label="energies")
    return ((row_split, col_split), step, steps, (energies,)), atoms_local


class GromacsBenchmark(AppBenchmark):
    """Runnable GROMACS benchmark (cases A and C)."""

    NAME = "GROMACS"
    fom = FigureOfMerit(name="wall time for 10k MD steps", kind=FomKind.RATE,
                        work=float(FOM_STEPS))

    def __init__(self, case: str = "A") -> None:
        super().__init__()
        if case not in CASES:
            raise ValueError(f"unknown GROMACS case {case!r}; choose A or C")
        self.case = case

    def fft_grid_size(self) -> int:
        """PME mesh dimension: about one grid point per 1.2 atoms^(1/3)
        linear density (typical production setting)."""
        atoms = CASES[self.case]["atoms"]
        return int(np.ceil(atoms ** (1.0 / 3.0) * 1.2))

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        if real:
            return self._execute_real(nodes, scale)
        machine = self.machine(nodes)
        atoms = CASES[self.case]["atoms"]
        steps_small = 3
        spmd = self.run_program(machine, gromacs_timing_program,
                                args=(atoms, steps_small,
                                      self.fft_grid_size()))
        per_step = spmd.elapsed / steps_small
        return self.result(
            nodes, spmd, fom_seconds=per_step * FOM_STEPS,
            case=self.case, atoms=atoms, fft_grid=self.fft_grid_size(),
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds,
            pme_comm_seconds=spmd.comm_profile().get("pme-fft", 0.0))

    def _execute_real(self, nodes: int, scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(1887)
        n_side = max(3, int(4 * scale) + 2)
        system = MdSystem.lattice_gas(n_side, box=float(n_side),
                                      temperature=0.05, rng=rng,
                                      charged=True)
        engine = MdEngine(system, LjParams(sigma=0.8, cutoff=1.9),
                          ewald=EwaldParams(alpha=1.5, kmax=6,
                                            real_cutoff=1.9))
        steps = max(20, int(60 * scale))
        obs = engine.run(steps, dt=0.001)
        kinetic_scale = float(np.mean(obs.kinetic))
        verifier = ModelVerifier(checks={
            "energy_drift": (lambda o: o.energy_drift() *
                             abs(o.total_energy[0]) / kinetic_scale,
                             0.0, 1e-2),
            "momentum": (lambda o: float(np.abs(
                system.total_momentum()).max()), 0.0, 1e-9),
            "temperature": (lambda o: float(np.mean(o.temperature)),
                            1e-4, 10.0),
        })
        check = verifier(obs)

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(self.machine(nodes), tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            atoms=system.n_atoms, steps=steps,
            drift=obs.energy_drift())
