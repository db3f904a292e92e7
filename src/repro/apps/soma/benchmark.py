"""The SOMA benchmark (Base 8 nodes; prepared, not used).

SCMF polymer Monte Carlo: because chains interact only through grid
density fields, a sweep is embarrassingly parallel between field
updates -- each rank owns a set of chains, a sweep is local, and only
the density fields are reduced (an allreduce per sweep).  Real mode
verifies ideal-chain statistics and that the compressibility field
homogenises a clustered melt.
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
from .scmf import ScmfSystem

#: production workload: chains, beads, field grid
CHAINS = 2_000_000
BEADS_PER_CHAIN = 64
FIELD_GRID = 128
MC_SWEEPS = 20_000
FLOPS_PER_BEAD_MOVE = 90.0
BYTES_PER_BEAD = 48.0


def soma_timing_program(world, chains: int, beads: int, grid: int,
                        sweeps: int):
    """Phantom-cost SCMF sweeps: local chain moves + field allreduce (a
    job program, :mod:`repro.vmpi.job`)."""
    chains_local = chains / world.size
    beads_local = chains_local * beads
    field_bytes = float(grid ** 3 * 4)  # single-precision densities
    sweep = (
        world.compute(flops=FLOPS_PER_BEAD_MOVE * beads_local,
                      bytes_moved=BYTES_PER_BEAD * beads_local,
                      efficiency=0.1, label="chain-moves"),
        world.allreduce(Phantom(field_bytes), label="field-reduce"),
    )
    return ((), sweep, sweeps, ()), chains_local


class SomaBenchmark(AppBenchmark):
    """Runnable SOMA benchmark."""

    NAME = "SOMA"
    fom = FigureOfMerit(name="SCMF sweep-loop runtime", unit="s")

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        sweeps_small = 5
        spmd = self.run_program(machine, soma_timing_program,
                                args=(CHAINS, BEADS_PER_CHAIN, FIELD_GRID,
                                      sweeps_small))
        fom = spmd.elapsed * (MC_SWEEPS / sweeps_small)
        return self.result(
            nodes, spmd, fom_seconds=fom, chains=CHAINS,
            beads=CHAINS * BEADS_PER_CHAIN,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        # ideal-chain statistics: <R^2> = (N-1) / bond_k (b_eff^2 = 1/k
        # per dimension times 3 ... with our spring 3/(k) per bond times
        # 3 dims ... measured against the direct random-walk builder)
        n_chains = max(100, int(400 * scale))
        beads = 16
        ideal = ScmfSystem.ideal_melt(n_chains, beads, box=40.0, seed=5)
        r2 = ideal.end_to_end_sq()
        expected = (beads - 1) * 1.0  # walk built with unit-variance steps
        # incompressibility: clustered melt homogenises under kappa
        melt = ScmfSystem.ideal_melt(max(40, int(120 * scale)), 8, box=8.0,
                                     grid_n=4, seed=6, kappa=0.6,
                                     clustered=True)
        var0 = melt.density_variance()
        acc = 0.0
        sweeps = max(6, int(15 * scale))
        for _ in range(sweeps):
            acc = melt.mc_sweep()
        var1 = melt.density_variance()
        verifier = ModelVerifier(checks={
            "ideal_r2": (lambda r: r["r2"] / r["expected"], 0.7, 1.3),
            "homogenised": (lambda r: r["var1"] / max(r["var0"], 1e-12),
                            0.0, 0.8),
            "acceptance": (lambda r: r["acc"], 0.05, 0.995),
        })
        check = verifier({"r2": r2, "expected": expected, "var0": var0,
                          "var1": var1, "acc": acc})

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            end_to_end_sq=r2, density_variance_drop=var1 / max(var0, 1e-12),
            acceptance=acc)
