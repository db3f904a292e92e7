"""The Amber benchmark (prepared for the procurement, not used).

The STMV case from the Amber20 suite: 1 067 095 atoms on a *single*
node.  "The code is mainly optimized for single GPU calculations and is
not intended to scale beyond a single node" (Sec. IV) -- the timing
program reflects that: only the four GPUs of one node decompose the
system (peer-to-peer over NVLink); any further nodes merely join the
per-step synchronisation, so the strong-scaling curve goes flat beyond
one node, which is exactly the shape Fig. 2 shows for Amber.

Real mode shares the MD engine with GROMACS (LJ melt, energy-drift and
momentum verification).
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import ModelVerifier
from ...vmpi import Phantom
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .engine import MdEngine, MdSystem
from .forcefield import LjParams
from .gromacs import FLOPS_PER_PAIR, NEIGHBORS_PER_ATOM

#: the STMV atom count from the Amber20 benchmark suite
STMV_ATOMS = 1_067_095
#: MD steps the FOM charges
FOM_STEPS = 10_000
#: ranks that actually share the system (one node's GPUs)
COMPUTE_RANKS = 4


def amber_timing_program(comm, atoms_total: int, steps: int):
    """Single-node-optimised MD: 4 compute ranks, the rest synchronise."""
    computing = comm.rank < min(COMPUTE_RANKS, comm.size)
    n_compute = min(COMPUTE_RANKS, comm.size)
    atoms_local = atoms_total / n_compute
    edge = atoms_local ** (1.0 / 3.0)
    halo_bytes = 6.0 * edge * edge * 40.0
    step = ()
    if computing:
        # pairwise exchange among the node's GPUs (NVLink)
        peer = comm.rank ^ 1 if n_compute > 1 else comm.rank
        if peer < n_compute and peer != comm.rank:
            step += (comm.sendrecv(peer, Phantom(halo_bytes), peer, tag=5),)
        step += (
            comm.compute(
                flops=atoms_local * NEIGHBORS_PER_ATOM * FLOPS_PER_PAIR,
                bytes_moved=atoms_local * 200.0,
                efficiency=0.02, label="pair-forces"),
            comm.compute(flops=atoms_local * 500.0,
                         bytes_moved=atoms_local * 150.0,
                         efficiency=0.03, label="pme"))
    # every rank (incl. idle ones) joins the step barrier; the idle
    # ranks' steps are shorter, so this stays a rank program
    step += (comm.barrier(label="step-sync"),)
    for _step in range(steps):
        yield step
    return atoms_local if computing else 0.0


class AmberBenchmark(AppBenchmark):
    """Runnable Amber benchmark (single-node STMV)."""

    NAME = "Amber"
    fom = FigureOfMerit(name="wall time for 10k MD steps", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        steps_small = 4
        spmd = self.run_program(machine, amber_timing_program,
                                args=(STMV_ATOMS, steps_small))
        per_step = spmd.elapsed / steps_small
        return self.result(
            nodes, spmd, fom_seconds=per_step * FOM_STEPS,
            atoms=STMV_ATOMS, compute_ranks=min(COMPUTE_RANKS,
                                                machine.nranks),
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        rng = np.random.default_rng(1995)
        n_side = max(3, int(5 * scale) + 1)
        a = 2.0 ** (1.0 / 6.0)
        system = MdSystem.lattice_gas(n_side, box=n_side * a,
                                      temperature=0.1, rng=rng)
        engine = MdEngine(system, LjParams(cutoff=2.5))
        obs = engine.run(max(30, int(100 * scale)), dt=0.002)
        kinetic_scale = float(np.mean(obs.kinetic))
        verifier = ModelVerifier(checks={
            "energy_drift": (lambda o: o.energy_drift() *
                             abs(o.total_energy[0]) / kinetic_scale,
                             0.0, 1e-2),
            "momentum": (lambda o: float(np.abs(
                system.total_momentum()).max()), 0.0, 1e-9),
        })
        check = verifier(obs)

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
                           verified=bool(check), verification=check.detail,
                           atoms=system.n_atoms, drift=obs.energy_drift())
