"""The Quantum ESPRESSO benchmark (Base 8 nodes; CP on ZrO2).

The suite uses the *Car-Parrinello Molecular Dynamics* model on a slab
of ZrO2 with 792 atoms (Sec. IV-A1e).  Each CP step applies the
plane-wave Hamiltonian to every electronic band: kinetic term in
G-space, local potential in real space -- i.e. a forward + inverse
distributed 3D FFT per band per step, "memory-bound ... and
communication-bound for large systems".

Real mode applies H = -1/2 lap + V(r) to a block of bands through the
*actual* distributed FFT (verified against the serial operator) and
checks orthonormality after Gram-Schmidt -- the numerics a CP step is
made of.  Timing mode charges bands x (2 FFTs + transpose alltoalls)
plus the dense subspace linear algebra (the ELPA dependency).
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...vmpi import Phantom
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .fft3d import dist_fft3, dist_ifft3, slab_range

#: ZrO2 slab: 792 atoms, ~4 valence bands per atom
ATOMS = 792
BANDS = ATOMS * 4
#: plane-wave FFT mesh for the slab (typical 100 Ry cutoff density mesh)
MESH = (180, 180, 216)
#: CP MD steps the FOM charges
FOM_STEPS = 50


def apply_hamiltonian_serial(psi: np.ndarray, v_r: np.ndarray) -> np.ndarray:
    """Serial reference: H psi for psi given in real space.

    H = -1/2 lap + V; the Laplacian acts diagonally in G-space with
    eigenvalue -|G|^2 (unit cell of size 2 pi for simplicity).
    """
    nz, ny, nx = psi.shape
    kz = np.fft.fftfreq(nz) * nz
    ky = np.fft.fftfreq(ny) * ny
    kx = np.fft.fftfreq(nx) * nx
    g2 = (kz[:, None, None] ** 2 + ky[None, :, None] ** 2 +
          kx[None, None, :] ** 2)
    psi_g = np.fft.fftn(psi)
    kinetic = np.fft.ifftn(0.5 * g2 * psi_g)
    return kinetic + v_r * psi


def qe_real_program(comm, psi_full: np.ndarray, v_r: np.ndarray):
    """Distributed H psi via the slab FFT (generator; returns max error
    against the serial reference on this rank's slab)."""
    nz, ny, nx = psi_full.shape
    zlo, zhi = slab_range(nz, comm.rank, comm.size)
    local = psi_full[zlo:zhi].copy()
    # forward FFT -> (ny_local, nz, nx) in G space
    psi_g = yield from dist_fft3(comm, local, nz)
    kz = np.fft.fftfreq(nz) * nz
    ky = np.fft.fftfreq(ny) * ny
    kx = np.fft.fftfreq(nx) * nx
    ylo, yhi = slab_range(ny, comm.rank, comm.size)
    g2 = (ky[ylo:yhi, None, None] ** 2 + kz[None, :, None] ** 2 +
          kx[None, None, :] ** 2)
    kin_g = 0.5 * g2 * psi_g
    kinetic = yield from dist_ifft3(comm, kin_g, nz, ny)
    h_psi = kinetic + v_r[zlo:zhi] * local
    ref = apply_hamiltonian_serial(psi_full, v_r)[zlo:zhi]
    return float(np.max(np.abs(h_psi - ref), initial=0.0))


def qe_timing_program(world, mesh: tuple[int, int, int], bands: int,
                      steps: int):
    """Phantom-cost CP stepping: per band two distributed FFTs with
    their transpose alltoalls, plus subspace GEMMs and an allreduce (a
    job program, :mod:`repro.vmpi.job`)."""
    nz, ny, nx = mesh
    points = float(nz * ny * nx)
    points_local = points / world.size
    transpose_bytes = points_local * 16.0  # complex128 slab per transpose
    # the uniform-Phantom alltoall states the per-pair volume directly
    transpose = world.alltoall(Phantom(16 * transpose_bytes / world.size),
                               label="fft-transpose")
    band_block = (
        world.compute(
            flops=16 * 5.0 * points_local * np.log2(max(points, 2)),
            bytes_moved=16 * points_local * 32.0,
            efficiency=0.25, label="fft"),
        transpose,  # forward + inverse transpose
        transpose,
    )
    # subspace diagonalisation / orthonormalisation (ELPA-ish GEMM);
    # the operand block is bands x points_local complex128 elements
    subspace = (
        world.compute(flops=2.0 * bands ** 2 * points_local / 16,
                      bytes_moved=bands * points_local * 16.0,
                      efficiency=0.5, label="subspace"),
        world.allreduce(Phantom(bands * bands * 16.0 / world.size),
                        label="subspace-reduce"),
    )
    step = band_block * max(1, bands // 16) + subspace  # blocked bands
    return ((), step, steps, ()), points_local


class QuantumEspressoBenchmark(AppBenchmark):
    """Runnable Quantum ESPRESSO benchmark."""

    NAME = "Quantum Espresso"
    fom = FigureOfMerit(name="CP MD step-loop runtime", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 2
        spmd = self.run_program(machine, qe_timing_program,
                                args=(MESH, BANDS, steps_small))
        fom = spmd.elapsed * (FOM_STEPS / steps_small)
        return self.result(
            nodes, spmd, fom_seconds=fom, atoms=ATOMS, bands=BANDS,
            mesh=MESH,
            fft_comm_seconds=spmd.comm_profile().get("fft-transpose", 0.0),
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        n = max(8, int(16 * scale))
        rng = np.random.default_rng(792)
        psi = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        v_r = rng.normal(size=(n, n, n)) * 0.3
        spmd = self.run_program(machine, qe_real_program, args=(psi, v_r))
        err = max(spmd.values)
        # orthonormalisation step of a small band block
        bands = 6
        block = rng.normal(size=(bands, n ** 3)) + \
            1j * rng.normal(size=(bands, n ** 3))
        q, _ = np.linalg.qr(block.T)
        overlap = q.conj().T @ q
        ortho_err = float(np.max(np.abs(overlap - np.eye(bands))))
        ok = err < 1e-10 and ortho_err < 1e-12
        return self.result(
            nodes, spmd, verified=ok,
            verification=f"distributed H*psi error {err:.2e}; "
                         f"orthonormality error {ortho_err:.2e}",
            hamiltonian_error=err, ortho_error=ortho_err)
