"""The Arbor benchmark (Base 8 nodes; High-Scaling 642, T/S/M/L).

Fig. 2's published reference points: 498 s on 8 nodes, 663 s on 4,
332 s on 12, 250 s on 16 -- nearly perfect strong scaling *except* when
the fixed workload no longer fits the GPUs (the 4-node point), which is
also why the Arbor developers "need to optimize memory usage" (Sec.
V-A).  The timing model reproduces both effects: per-cell channel and
cable costs in the paper's measured proportions (52 % ion channels,
33 % cable equation, communication fully hidden), plus a host-paging
penalty when the per-device workload exceeds GPU memory.

Real mode runs the genuine distributed ring network: cells partitioned
over ranks, spikes exchanged by allgather every synaptic-delay epoch
(Arbor's communication scheme), validated by the *exact spike count*
against the single-process reference -- the paper's validation metric.
"""

from __future__ import annotations

import numpy as np

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...vmpi import Phantom
from ...vmpi.decomposition import block_partition
from ...vmpi.machine import Machine
from ..base import AppBenchmark
from .morphology import random_tree
from .network import Cell, RingNetwork, simulate_rings

#: bytes of device state per compartment (voltage, gates, currents,
#: matrix coefficients, connectivity)
BYTES_PER_COMPARTMENT = 400.0
#: compartments per benchmark cell (the 'complex cell')
COMPARTMENTS_PER_CELL = 3000.0
#: simulated biological time of the FOM run [ms]
FOM_BIOLOGICAL_MS = 1000.0
DT_MS = 0.025
#: measured cost-centre shares (Sec. IV-A2a)
CHANNEL_SHARE = 0.52
CABLE_SHARE = 0.33
OTHER_SHARE = 1.0 - CHANNEL_SHARE - CABLE_SHARE
#: arithmetic per compartment-step attributable to each centre
FLOPS_PER_COMP_STEP = 400.0


def arbor_timing_program(world, cells_total: float, steps: int,
                         exchange_every: int, pressure: float):
    """Phantom-cost ring-network integration (a job program,
    :mod:`repro.vmpi.job`).

    The integration kernels are bandwidth-bound streaming sweeps over
    the compartment state (hence the high bandwidth efficiency);
    ``pressure`` > 1 adds the allocator/fragmentation degradation of
    running at the memory limit (the Fig. 2 four-node point).
    """
    cells_local = cells_total / world.size
    comps = cells_local * COMPARTMENTS_PER_CELL
    step = tuple(
        world.compute(flops=share * FLOPS_PER_COMP_STEP * comps,
                      bytes_moved=share * BYTES_PER_COMPARTMENT * comps *
                      0.3 * pressure,
                      efficiency=0.60, label=label)
        for share, label in ((CHANNEL_SHARE, "channels"),
                             (CABLE_SHARE, "cable"),
                             (OTHER_SHARE, "other")))
    # spike exchange: tiny payloads, fully hidden behind compute
    spikes = world.allgather(Phantom(64.0 * cells_local * 0.01),
                             label="spike-exchange")
    # one step per communication epoch, the steps after the last
    # exchange as the epilogue
    epochs = steps // exchange_every
    return ((), step * exchange_every + (spikes,), epochs,
            step * (steps % exchange_every)), epochs


def arbor_real_program(comm, network: RingNetwork, t_end: float,
                       dt: float, seed: int, morph_depth: int):
    """Genuine distributed ring simulation with epoch spike exchange.

    Cells are block-partitioned by gid; every ``delay`` of biological
    time, ranks allgather their new spikes and deliver the resulting
    synaptic events locally -- semantically identical to the serial
    reference because no synapse can act sooner than one delay.
    """
    rng = np.random.default_rng(seed)
    # all ranks build all morphologies from the shared seed, keep theirs
    lo, hi = block_partition(network.n_cells, comm.size)[comm.rank]
    cells: dict[int, Cell] = {}
    for gid in range(network.n_cells):
        morph = random_tree(rng, depth=morph_depth)
        if lo <= gid < hi:
            cells[gid] = Cell.build(morph)
    for ring in range(network.n_rings):
        gid = network.gid(ring, 0)
        if gid in cells:
            cells[gid].inject(0.0, network.pulse, network.weight)
    steps_per_epoch = max(1, int(round(network.delay / dt)))
    total_steps = int(round(t_end / dt))
    t = 0.0
    my_spikes: list[tuple[float, int]] = []
    epoch_spikes: list[tuple[float, int]] = []
    for step in range(total_steps):
        for gid, cell in cells.items():
            if cell.step(t, dt):
                epoch_spikes.append((t, gid))
        t += dt
        if (step + 1) % steps_per_epoch == 0 or step == total_steps - 1:
            all_spikes = yield comm.allgather(list(epoch_spikes))
            for rank_spikes in all_spikes:
                for (t_spike, gid) in rank_spikes:
                    for target, weight in network.targets(gid):
                        if weight > 0.0 and target in cells:
                            cells[target].inject(t_spike + network.delay,
                                                 network.pulse, weight)
            my_spikes.extend(epoch_spikes)
            epoch_spikes = []
    total = yield comm.allreduce(len(my_spikes))
    return int(total)


class ArborBenchmark(AppBenchmark):
    """Runnable Arbor benchmark."""

    NAME = "Arbor"
    fom = FigureOfMerit(name="ring-network integration time", unit="s")

    def cells_for(self, nodes: int, variant: MemoryVariant | None) -> float:
        """Cells filling the variant fraction of a job's GPU memory.

        The Base workload is sized at the *reference* 8 nodes and kept
        fixed for strong scaling; High-Scaling sizes per device (weak).
        """
        per_device = self.device_bytes(variant) / (
            BYTES_PER_COMPARTMENT * COMPARTMENTS_PER_CELL)
        return per_device * nodes * 4

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        machine = self.machine(nodes)
        if real:
            return self._execute_real(nodes, machine, scale)
        v = self.variant_or_default(variant)
        # Fixed Base workload (sized for 8 reference nodes) unless the
        # benchmark runs in its High-Scaling regime -- an explicit memory
        # variant was requested, or the job is large -- where the
        # workload is weak-scaled per device.
        weak = variant is not None or nodes >= 64
        sized_nodes = nodes if weak else self.info.reference_nodes
        cells = self.cells_for(sized_nodes, v)
        per_device_bytes = (cells * COMPARTMENTS_PER_CELL *
                            BYTES_PER_COMPARTMENT) / machine.nranks
        capacity = machine.system.node.device.mem_capacity * 0.95
        oversub = max(1.0, per_device_bytes / capacity)
        pressure = 1.0
        if oversub > 1.0:
            # The fixed workload does not fit: physically, only the part
            # that fits can be resident, so the run is clamped to it and
            # pays an at-the-limit degradation (the Fig. 2 four-node
            # point sits *below* the perfect-scaling line for exactly
            # this reason).
            cells = cells / oversub
            pressure = 1.3
        # one communication epoch per synaptic delay (2 ms at dt=0.025)
        exchange_every = max(1, int(round(2.0 / DT_MS)))
        steps_small = exchange_every
        spmd = self.run_program(machine, arbor_timing_program,
                                args=(cells, steps_small, exchange_every,
                                      pressure))
        full_steps = FOM_BIOLOGICAL_MS / DT_MS
        fom = spmd.elapsed * (full_steps / steps_small)
        profile = spmd.compute_profile()
        total_profile = sum(profile.values()) or 1.0
        return self.result(
            nodes, spmd, variant=v, fom_seconds=fom,
            cells=cells, oversubscription=oversub,
            workload_clamped=oversub > 1.0,
            channel_share=profile.get("channels", 0.0) / total_profile,
            cable_share=profile.get("cable", 0.0) / total_profile,
            comm_seconds=spmd.comm_seconds,
            compute_seconds=spmd.compute_seconds)

    def _execute_real(self, nodes: int, machine: Machine,
                      scale: float) -> BenchmarkResult:
        network = RingNetwork(n_rings=2, cells_per_ring=4)
        t_end = max(10.0, 30.0 * scale)
        reference = simulate_rings(network, t_end=t_end, dt=DT_MS,
                                   seed=11, morph_depth=2)
        spmd = self.run_program(machine, arbor_real_program,
                                args=(network, t_end, DT_MS, 11, 2))
        counts = set(spmd.values)
        verified = counts == {reference["count"]} and reference["count"] > 0
        return self.result(
            nodes, spmd, verified=verified,
            verification=f"spike count {sorted(counts)} vs reference "
                         f"{reference['count']} (exact match required)",
            spikes=reference["count"], cells=network.n_cells)
