"""The ICON benchmark (Base; R02B09 at 120 nodes, R02B10 at 300).

The benchmark (Sec. IV-A1b) is a global atmospheric forecast in two
resolutions: R02B09 (5 km, 120 nodes) and R02B10 (2.5 km, 300 nodes).
"A unique aspect of the ICON benchmark is its large input dataset:
R02B09 requires 1.8 TB of data, R02B10 needs 4.5 TB.  Therefore, the
ICON benchmark also tests the performance of I/O operations" -- the
timing program stages the input through the storage model before the
stepping loop.

Real mode runs the shallow-water dynamical-core proxy and applies the
model-based verification of Sec. V-A: exact mass conservation, bounded
energy drift, and persistence of a geostrophically balanced state.
"""

from __future__ import annotations

import numpy as np

from ...cluster.storage import StorageModel
from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...core.verification import ModelVerifier
from ...units import MIB, TERA
from ...vmpi.decomposition import CartGrid, phantom_faces
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .dynamics import gaussian_hill, geostrophic_state, step_rk3

#: the two sub-benchmarks: icosahedral cell counts, input data, nodes
SUBCASES = {
    "R02B09": {"cells": 20_971_520, "input_bytes": 1.8 * TERA, "nodes": 120,
               "resolution_km": 5.0},
    "R02B10": {"cells": 83_886_080, "input_bytes": 4.5 * TERA, "nodes": 300,
               "resolution_km": 2.5},
}
VERTICAL_LEVELS = 90
FOM_STEPS = 7200           # forecast steps charged by the FOM (2.5-day
# forecast at the R02B09 time step)
#: per-cell-level arithmetic of one dynamics step (stencils + vertical
#: implicit solve + physics parameterisations)
FLOPS_PER_CELL_LEVEL = 1200.0
BYTES_PER_CELL_LEVEL = 2000.0


def icon_timing_program(world, cells: float, input_bytes: float,
                        steps: int, io_seconds: float):
    """Input staging + horizontally decomposed forecast stepping (a job
    program, :mod:`repro.vmpi.job`)."""
    cart = CartGrid.for_ranks(world.size, 2, periodic=True)
    cells_local = cells / world.size
    cols = max(cells_local ** 0.5, 1.0)
    local_dims = (int(cols) + 1, int(cols) + 1)
    faces = phantom_faces(local_dims,
                          itemsize=int(8 * VERTICAL_LEVELS * 3))
    # parallel read of the initial state (every rank takes its share)
    staging = (world.elapse(io_seconds, label="input-staging"),
               world.barrier(label="startup"))
    work = cells_local * VERTICAL_LEVELS
    forecast_step = (
        world.compute(flops=work * FLOPS_PER_CELL_LEVEL * 0.7,
                      bytes_moved=work * BYTES_PER_CELL_LEVEL * 0.7,
                      efficiency=0.35, label="dynamics"),
        world.compute(flops=work * FLOPS_PER_CELL_LEVEL * 0.3,
                      bytes_moved=work * BYTES_PER_CELL_LEVEL * 0.3,
                      efficiency=0.35, label="physics"),
    ) + world.halo(cart, faces)
    return (staging, forecast_step, steps, ()), cells_local


class IconBenchmark(AppBenchmark):
    """Runnable ICON benchmark."""

    NAME = "ICON"
    fom = FigureOfMerit(name="forecast runtime (incl. input staging)",
                        unit="s")

    def __init__(self, subcase: str = "R02B09") -> None:
        super().__init__()
        if subcase not in SUBCASES:
            raise ValueError(f"unknown ICON sub-benchmark {subcase!r}")
        self.subcase = subcase

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        case = SUBCASES[self.subcase]
        storage = StorageModel()
        io_seconds = storage.transfer_time(case["input_bytes"], nodes,
                                           transfer_size=16 * MIB,
                                           write=False)
        steps_small = 4
        spmd = self.run_program(machine, icon_timing_program,
                                args=(float(case["cells"]),
                                      case["input_bytes"], steps_small,
                                      io_seconds))
        stepping = spmd.elapsed - io_seconds
        fom = io_seconds + stepping * (FOM_STEPS / steps_small)
        return self.result(
            nodes, spmd, fom_seconds=fom,
            subcase=self.subcase, cells=case["cells"],
            input_bytes=case["input_bytes"], io_seconds=io_seconds,
            io_fraction=io_seconds / fom,
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        n = max(24, int(48 * scale))
        steps = max(30, int(80 * scale))
        # gravity-wave case: mass + energy conservation
        state = gaussian_hill(n, n)
        mass0, energy0 = state.mass(), state.energy()
        dt = state.courant_dt()
        for _ in range(steps):
            step_rk3(state, dt)
        mass_err = abs(state.mass() - mass0) / mass0
        energy_err = abs(state.energy() - energy0) / energy0
        # geostrophic balance persistence
        geo = geostrophic_state(8, n)
        u0 = geo.u.copy()
        dtg = geo.courant_dt()
        for _ in range(steps):
            step_rk3(geo, dtg)
        geo_drift = float(np.max(np.abs(geo.u - u0)) /
                          max(np.max(np.abs(u0)), 1e-12))
        verifier = ModelVerifier(checks={
            "mass_conservation": (lambda r: r["mass"], 0.0, 1e-12),
            "energy_drift": (lambda r: r["energy"], 0.0, 1e-3),
            "geostrophic_drift": (lambda r: r["geo"], 0.0, 0.05),
        })
        check = verifier({"mass": mass_err, "energy": energy_err,
                          "geo": geo_drift})

        def tiny(comm):
            yield comm.barrier()

        spmd = self.run_program(machine, tiny)
        return self.result(
            nodes, spmd, fom_seconds=max(spmd.elapsed, 1e-6),
            verified=bool(check), verification=check.detail,
            mass_error=mass_err, energy_error=energy_err,
            geostrophic_drift=geo_drift)
