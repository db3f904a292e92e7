"""Job programs against the per-rank generators they replaced.

Seventeen timing programs are job programs (:mod:`repro.vmpi.job`): one
call builds every op once, as a column for all ranks, and the engine
plans each distinct column once and runs the step plan ``steps`` times
over NumPy arrays.  Their per-rank generators are kept below verbatim
(module constants qualified) as the oracle:

(a) old and new, on :class:`~repro.vmpi.VmpiEngine` and on the
    reference scheduler (:mod:`tests.vmpi_reference`, which lowers a
    job program onto the per-rank path), at 1/2/3/4/8 ranks, on a
    mixed-device MSA job and under a straggler fault plan: canonical
    JSON of values, clocks and traces, and trace key order, byte-equal
    (JUQCS and LinkTest at 1/2/4/8 ranks and on MSA, with eager and
    rendezvous messages);
(b) the same at every point ``fig2`` and ``fig3 --nodes 16,128`` run
    (production engine only: the reference is too slow at 960 ranks);
(c) a column that is not columns -- a mismatched collective, a
    Sendrecv that does not match, an unpaired halo -- runs rank by rank
    and fails with the per-rank path's error class and text;
(d) fresh-interpreter count guards: ``fig2`` and ``fig3 --nodes 936``
    step no rank of a job program and plan each distinct column once.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.figures import FIG2_APPS, FIG3_APPS, figure2, figure3
from repro.apps.ai import benchmarks as ai
from repro.apps.arbor import benchmark as arbor
from repro.apps.base import AppBenchmark
from repro.apps.icon import benchmark as icon
from repro.apps.juqcs.benchmark import juqcs_timing_program
from repro.apps.juqcs.distributed import (
    AMP_BYTES,
    _gate,
    _swap,
    dist_zero_state,
    gate_plan,
)
from repro.apps.juqcs.statevector import H, is_unitary
from repro.apps.lattice import chroma, dynqcd
from repro.apps.md import gromacs
from repro.apps.nastja import benchmark as nastja
from repro.apps.nekrs import benchmark as nekrs
from repro.apps.parflow import benchmark as parflow
from repro.apps.picongpu import benchmark as picongpu
from repro.apps.qe import benchmark as qe
from repro.apps.soma import benchmark as soma
from repro.cluster import juwels_booster
from repro.core.suite import JupiterBenchmarkSuite
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.synthetic import hpcg
from repro.synthetic.linktest import bisection_program
from repro.units import KIB, MIB
from repro.vmpi import Machine, Phantom, VmpiEngine, VmpiError
from repro.vmpi import sweep as sweep_module
from repro.vmpi.decomposition import CartGrid, halo_batch, phantom_faces
from repro.vmpi.job import World
from repro.vmpi.trace import _canon
from tests.vmpi_reference import ReferenceEngine

ROOT = Path(__file__).resolve().parent.parent


# -- the per-rank generators, verbatim -----------------------------------------

def icon_per_rank(comm, cells: float, input_bytes: float,
                  steps: int, io_seconds: float):
    """Input staging + horizontally decomposed forecast stepping."""
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    cells_local = cells / comm.size
    cols = max(cells_local ** 0.5, 1.0)
    local_dims = (int(cols) + 1, int(cols) + 1)
    faces = phantom_faces(local_dims,
                          itemsize=int(8 * icon.VERTICAL_LEVELS * 3))
    # parallel read of the initial state (every rank takes its share)
    yield comm.elapse(io_seconds, label="input-staging")
    yield comm.barrier(label="startup")
    work = cells_local * icon.VERTICAL_LEVELS
    # The forecast step is a constant program: hoist its ops once
    # (persistent-request style) and yield them as one fused batch.
    halo, _keys = halo_batch(comm, cart, faces)
    forecast_step = (
        comm.compute(flops=work * icon.FLOPS_PER_CELL_LEVEL * 0.7,
                     bytes_moved=work * icon.BYTES_PER_CELL_LEVEL * 0.7,
                     efficiency=0.35, label="dynamics"),
        comm.compute(flops=work * icon.FLOPS_PER_CELL_LEVEL * 0.3,
                     bytes_moved=work * icon.BYTES_PER_CELL_LEVEL * 0.3,
                     efficiency=0.35, label="physics"),
    ) + halo
    for _step in range(steps):
        yield forecast_step
    return cells_local


def megatron_per_rank(comm, steps: int):
    """3D-parallel GPT training steps (phantom costs).

    TP group = the node's 4 GPUs; PP stages split the layer stack over
    nodes (up to 12); DP replicates the rest.  Per step: the GEMM work
    of 6 * params * tokens FLOPs spread over all ranks, TP allreduces
    per layer, PP boundary sendrecvs, and the DP gradient allreduce.
    """
    tp = yield comm.split(comm.rank // ai.TP_SIZE)           # node-local
    nodes = comm.size // ai.TP_SIZE
    pp_stages = min(12, max(1, nodes))
    node_id = comm.rank // ai.TP_SIZE
    pp = yield comm.split(node_id % max(1, nodes // pp_stages),
                          key=node_id)
    dp = yield comm.split((comm.rank % ai.TP_SIZE) * pp_stages +
                          (node_id // max(1, nodes // pp_stages)) % pp_stages)
    flops_per_rank = 6.0 * ai.GPT_PARAMS * ai.TOKENS_PER_STEP / comm.size
    layers_per_stage = ai.GPT_LAYERS / pp_stages
    micro_tokens = ai.TOKENS_PER_STEP / max(1, dp.size) / 8.0  # 8 microbatches
    act_bytes = micro_tokens * ai.GPT_HIDDEN * 2.0
    # GEMMs (forward + backward + recompute)
    gemm = comm.compute(flops=flops_per_rank / ai.BF16_FACTOR,
                        bytes_moved=flops_per_rank / 300.0,
                        efficiency=ai.GEMM_EFFICIENCY, label="gemm")
    # tensor-parallel allreduces: ~4 per layer per microbatch,
    # aggregated here into one op per microbatch over the stage
    micro = (tp.allreduce(Phantom(4.0 * layers_per_stage * act_bytes / 8.0),
                          label="tp-allreduce"),)
    if pp.size > 1:
        nxt = (pp.rank + 1) % pp.size
        prv = (pp.rank - 1) % pp.size
        micro += (pp.sendrecv(nxt, Phantom(act_bytes), prv, tag=7),)
    # data-parallel gradient allreduce (sharded parameters)
    grads = dp.allreduce(Phantom(2.0 * ai.GPT_PARAMS / (ai.TP_SIZE * pp_stages)),
                         label="dp-allreduce")
    # The step is a constant program: one batch, so the engine runs it
    # for all ranks in lockstep (see DESIGN.md section 10).
    step = (gemm,) + micro * 8 + (grads,)
    for _step in range(steps):
        yield step
    return pp_stages


def mmoclip_per_rank(comm, steps: int):
    """Data-parallel contrastive training with the feature allgather."""
    batch_local = ai.CLIP_GLOBAL_BATCH / comm.size
    flops = ai.CLIP_FLOPS_PER_PAIR * batch_local
    feature_bytes = batch_local * ai.CLIP_EMBED_DIM * 2.0 * 2  # both towers
    step = (
        comm.compute(flops=flops / ai.BF16_FACTOR,
                     bytes_moved=flops / 300.0,
                     efficiency=ai.GEMM_EFFICIENCY, label="towers"),
        # the CLIP-specific step: allgather all ranks' embeddings to
        # build the global similarity matrix
        comm.allgather(Phantom(feature_bytes), label="feature-gather"),
        comm.compute(flops=ai.CLIP_GLOBAL_BATCH * batch_local *
                     ai.CLIP_EMBED_DIM * 4.0 / ai.BF16_FACTOR,
                     bytes_moved=ai.CLIP_GLOBAL_BATCH * batch_local * 4.0,
                     efficiency=ai.GEMM_EFFICIENCY, label="similarity"),
        comm.allreduce(Phantom(2.0 * ai.CLIP_PARAMS / comm.size),
                       label="dp-allreduce"),
    )
    for _step in range(steps):
        yield step
    return batch_local


def resnet_per_rank(comm, steps: int):
    """Horovod-style data-parallel ResNet-50 training."""
    batch_local = ai.RESNET_GLOBAL_BATCH / comm.size
    step = (
        comm.compute(
            flops=ai.RESNET_FLOPS_PER_IMAGE * batch_local / ai.BF16_FACTOR,
            bytes_moved=batch_local * 150e6 / 10.0,
            efficiency=ai.GEMM_EFFICIENCY * 0.6,  # convs attain less
            label="conv"),
        comm.allreduce(Phantom(2.0 * ai.RESNET_PARAMS), label="grad-allreduce"),
    )
    for _step in range(steps):
        yield step
    return batch_local


def qe_per_rank(comm, mesh: tuple[int, int, int], bands: int,
                steps: int):
    """Phantom-cost CP stepping: per band two distributed FFTs with
    their transpose alltoalls, plus subspace GEMMs and an allreduce."""
    nz, ny, nx = mesh
    points = float(nz * ny * nx)
    points_local = points / comm.size
    transpose_bytes = points_local * 16.0  # complex128 slab per transpose
    # Constant ops, hoisted out of the step loop and fused into batches;
    # the uniform-Phantom alltoall states the per-pair volume directly.
    transpose = comm.alltoall(Phantom(16 * transpose_bytes / comm.size),
                              label="fft-transpose")
    band_block = (
        comm.compute(
            flops=16 * 5.0 * points_local * np.log2(max(points, 2)),
            bytes_moved=16 * points_local * 32.0,
            efficiency=0.25, label="fft"),
        transpose,  # forward + inverse transpose
        transpose,
    )
    # subspace diagonalisation / orthonormalisation (ELPA-ish GEMM);
    # the operand block is bands x points_local complex128 elements
    subspace = (
        comm.compute(flops=2.0 * bands ** 2 * points_local / 16,
                     bytes_moved=bands * points_local * 16.0,
                     efficiency=0.5, label="subspace"),
        comm.allreduce(Phantom(bands * bands * 16.0 / comm.size),
                       label="subspace-reduce"),
    )
    step = band_block * max(1, bands // 16) + subspace  # blocked bands
    for _step in range(steps):
        yield step
    return points_local


def chroma_per_rank(comm, local_dims: tuple[int, int, int, int],
                    trajectories: int, md_steps: int, cg_iters: int):
    """Phantom-cost HMC trajectories on a 4D-decomposed lattice.

    Each rank owns ``local_dims`` sites; one MD step = gauge force +
    fermion CG (two Dslash halo exchanges + three reductions per
    iteration).  Returns the number of charged Dslash applications.
    """
    cart = CartGrid.for_ranks(comm.size, 4, periodic=True)
    faces = phantom_faces(local_dims, itemsize=chroma.HALO_BYTES_PER_SITE)
    local_sites = float(np.prod(local_dims))
    halo, _keys = halo_batch(comm, cart, faces)
    force = comm.compute(flops=chroma.FORCE_FLOPS_PER_SITE * local_sites,
                         bytes_moved=600.0 * local_sites,
                         efficiency=0.30, label="gauge-force")
    dslash = halo + (
        comm.compute(flops=chroma.DSLASH_FLOPS_PER_SITE * local_sites,
                     bytes_moved=chroma.DSLASH_BYTES_PER_SITE * local_sites,
                     efficiency=0.35, label="dslash"),)
    reduce = comm.allreduce(Phantom(16.0), label="cg-reduce")
    cg_iter = dslash * 2 + (reduce, reduce)  # D then D^+, two dots
    # a trajectory is a constant program: one batch each
    trajectory = ((force,) + cg_iter * cg_iters) * md_steps + (
        comm.allreduce(Phantom(8.0), label="metropolis"),)
    for _traj in range(trajectories):
        yield trajectory
    return trajectories * md_steps * cg_iters * 2


def dynqcd_per_rank(comm, local_dims, propagators: int, cg_iters: int):
    """Phantom-cost propagator generation on the CPU module."""
    cart = CartGrid.for_ranks(comm.size, 4, periodic=True)
    faces = phantom_faces(local_dims, itemsize=dynqcd.HALO_BYTES_PER_SITE)
    local_sites = float(np.prod(local_dims))
    halo, _keys = halo_batch(comm, cart, faces)
    dslash = halo + (
        comm.compute(flops=dynqcd.DSLASH_FLOPS_PER_SITE * local_sites,
                     bytes_moved=dynqcd.DSLASH_BYTES_PER_SITE * local_sites,
                     efficiency=0.65, label="dslash"),)  # bandwidth-bound
    reduce = comm.allreduce(Phantom(16.0), label="cg-reduce")
    # one propagator's CG is a constant program: one batch each
    propagator = (dslash * 2 + (reduce, reduce)) * cg_iters
    for _prop in range(propagators):
        yield propagator
    return propagators * cg_iters


def nekrs_per_rank(comm, elements_total: float, steps: int,
                   pressure_iters: int, velocity_iters: int):
    """Phantom-cost RBC time stepping."""
    cart = CartGrid.for_ranks(comm.size, 3, periodic=(True, True, False))
    e_local = elements_total / comm.size
    flops_eval = nekrs.flops_per_element(nekrs.POINTS) * e_local
    points_local = e_local * nekrs.POINTS ** 3
    # gather-scatter face traffic: shared element faces on rank surface
    edge = max(e_local ** (1.0 / 3.0), 1.0)
    face_bytes = edge * edge * (nekrs.POINTS ** 2) * 8.0
    faces = phantom_faces((int(edge) + 1,) * 3, itemsize=1)
    faces = {k: Phantom(face_bytes) for k in faces}
    halo, _keys = halo_batch(comm, cart, faces)
    cg_iter = (comm.compute(flops=flops_eval,
                            bytes_moved=points_local * 8.0 * 6.0,
                            efficiency=0.35, label="sem-operator"),) \
        + halo + (comm.allreduce(Phantom(16.0), label="cg-dot"),)
    step = cg_iter * (pressure_iters + velocity_iters) + (
        # advection + forcing evaluation once per step
        comm.compute(flops=flops_eval * 3.0,
                     bytes_moved=points_local * 8.0 * 9.0,
                     efficiency=0.35, label="advection"),)
    for _step in range(steps):
        yield step
    return e_local


def nastja_per_rank(comm, domain: tuple[int, int, int], steps: int):
    """Block-decomposed MC sweeps with per-sweep halo exchange."""
    cart = CartGrid.for_ranks(comm.size, 3, extents=domain, periodic=False)
    voxels_local = float(np.prod(domain)) / comm.size
    local_dims = tuple(max(1, int(d / g))
                       for d, g in zip(domain, cart.dims))
    faces = phantom_faces(local_dims, itemsize=8)
    halo, _keys = halo_batch(comm, cart, faces)
    step = (comm.compute(flops=nastja.FLOPS_PER_VOXEL * voxels_local,
                         bytes_moved=nastja.BYTES_PER_VOXEL * voxels_local,
                         efficiency=0.08,  # irregular access pattern
                         label="mc-sweep"),) + halo
    for _step in range(steps):
        yield step
    return voxels_local


def picongpu_per_rank(comm, grid: tuple[int, int, int], steps: int):
    """Phantom-cost KHI stepping on a 3D-decomposed domain."""
    cart = CartGrid.for_ranks(comm.size, 3, extents=grid, periodic=True)
    cells_local = float(np.prod(grid)) / comm.size
    particles_local = cells_local * picongpu.PARTICLES_PER_CELL
    local_dims = tuple(int(g / d) for g, d in zip(grid, cart.dims))
    # field halos: 2 ghost layers of E/B/J, plus particle migration
    faces = phantom_faces(local_dims, itemsize=int(picongpu.BYTES_PER_CELL * 2))
    halo, _keys = halo_batch(comm, cart, faces)
    step = (
        comm.compute(flops=particles_local * 230.0,
                     bytes_moved=particles_local * picongpu.BYTES_PER_PARTICLE,
                     efficiency=0.18, label="push-deposit"),
        comm.compute(flops=cells_local * 80.0,
                     bytes_moved=cells_local * picongpu.BYTES_PER_CELL * 2,
                     efficiency=0.4, label="fdtd"),
    ) + halo
    for _step in range(steps):
        yield step
    return particles_local


def parflow_per_rank(comm, domain, steps: int, newton: int,
                     mgcg: int):
    """Phantom-cost Newton-Krylov stepping on the ClayL domain."""
    cart = CartGrid.for_ranks(comm.size, 3, extents=domain, periodic=False)
    cells_local = float(np.prod(domain)) / comm.size
    local_dims = tuple(max(1, int(d / g)) for d, g in zip(domain, cart.dims))
    faces = phantom_faces(local_dims, itemsize=8)
    halo, _keys = halo_batch(comm, cart, faces)
    mgcg_iter = (comm.compute(flops=parflow.FLOPS_PER_CELL * cells_local,
                              bytes_moved=parflow.BYTES_PER_CELL * cells_local,
                              efficiency=0.35, label="mgcg"),) \
        + halo + (comm.allreduce(Phantom(16.0), label="cg-dot"),)
    # nonlinear residual + Jacobian setup, then the linear solve
    newton_iter = (comm.compute(flops=3 * parflow.FLOPS_PER_CELL * cells_local,
                                bytes_moved=3 * parflow.BYTES_PER_CELL * cells_local,
                                efficiency=0.3, label="newton"),) \
        + mgcg_iter * mgcg
    step = newton_iter * newton
    for _step in range(steps):
        yield step
    return cells_local


def soma_per_rank(comm, chains: int, beads: int, grid: int,
                  sweeps: int):
    """Phantom-cost SCMF sweeps: local chain moves + field allreduce."""
    chains_local = chains / comm.size
    beads_local = chains_local * beads
    field_bytes = float(grid ** 3 * 4)  # single-precision densities
    sweep = (
        comm.compute(flops=soma.FLOPS_PER_BEAD_MOVE * beads_local,
                     bytes_moved=soma.BYTES_PER_BEAD * beads_local,
                     efficiency=0.1, label="chain-moves"),
        comm.allreduce(Phantom(field_bytes), label="field-reduce"),
    )
    for _sweep in range(sweeps):
        yield sweep
    return chains_local


def arbor_per_rank(comm, cells_total: float, steps: int,
                   exchange_every: int, pressure: float):
    """Phantom-cost ring-network integration.

    The integration kernels are bandwidth-bound streaming sweeps over
    the compartment state (hence the high bandwidth efficiency);
    ``pressure`` > 1 adds the allocator/fragmentation degradation of
    running at the memory limit (the Fig. 2 four-node point).
    """
    cells_local = cells_total / comm.size
    comps = cells_local * arbor.COMPARTMENTS_PER_CELL
    step = tuple(
        comm.compute(flops=share * arbor.FLOPS_PER_COMP_STEP * comps,
                     bytes_moved=share * arbor.BYTES_PER_COMPARTMENT * comps *
                     0.3 * pressure,
                     efficiency=0.60, label=label)
        for share, label in ((arbor.CHANNEL_SHARE, "channels"),
                             (arbor.CABLE_SHARE, "cable"),
                             (arbor.OTHER_SHARE, "other")))
    # spike exchange: tiny payloads, fully hidden behind compute
    spikes = comm.allgather(Phantom(64.0 * cells_local * 0.01),
                            label="spike-exchange")
    # one batch per communication epoch, the steps after the last
    # exchange in a final shorter one
    epoch = step * exchange_every + (spikes,)
    epochs = steps // exchange_every
    for _epoch in range(epochs):
        yield epoch
    if steps % exchange_every:
        yield step * (steps % exchange_every)
    return epochs


def gromacs_per_rank(comm, atoms_total: int, steps: int,
                     fft_grid: int):
    """One domain-decomposed MD step-loop with PME (phantom costs).

    The distributed 3D FFT uses a 2D *pencil* decomposition: ranks form
    a near-square (rows x cols) grid and each transpose is an alltoall
    within a row or column subgroup of ~sqrt(P) ranks -- the structure
    that makes PME latency-tolerable at small payloads and
    bandwidth-bound at case-C scale.
    """
    cart = CartGrid.for_ranks(comm.size, 3, periodic=True)
    atoms_local = atoms_total / comm.size
    # boundary shell ~ surface fraction of the local box
    edge = max(atoms_local ** (1.0 / 3.0), 1.0)
    local_dims = (int(edge) + 1,) * 3
    faces = phantom_faces(local_dims,
                          itemsize=int(gromacs.HALO_BYTES_PER_ATOM))
    # pencil grid for the FFT transposes
    rows = int(np.sqrt(comm.size))
    while comm.size % rows != 0:
        rows -= 1
    cols = comm.size // rows
    row_comm = yield comm.split(comm.rank // cols)
    col_comm = yield comm.split(comm.rank % cols)
    # PME mesh pencil per rank (complex64 after r2c)
    grid_local_bytes = (fft_grid ** 3 / comm.size) * 8.0
    halo, _keys = halo_batch(comm, cart, faces)
    fft = comm.compute(
        flops=2.5 * (fft_grid ** 3 / comm.size) * np.log2(max(fft_grid, 2)),
        bytes_moved=grid_local_bytes * 2.0, efficiency=0.10, label="pme-fft")
    # the personalised (size-P tuple) transposes carry no data but are
    # not size-only descriptors, so this batch runs rank by rank
    row_t, col_t = (
        (sub.alltoall(tuple(Phantom(grid_local_bytes / sub.size)
                            for _ in range(sub.size)), label="pme-fft"), fft)
        for sub in (row_comm, col_comm))
    step = (
        # position halo, short-range kernel, force halo
        halo
        + (comm.compute(
            flops=atoms_local * gromacs.NEIGHBORS_PER_ATOM *
            gromacs.FLOPS_PER_PAIR,
            bytes_moved=atoms_local * 200.0,
            efficiency=0.02, label="pair-forces"),)
        + halo
        # PME: spread, forward 3D FFT (row + col transpose), k-space
        # multiply, inverse FFT (col + row transpose), gather
        + (comm.compute(flops=atoms_local * 300.0,
                        bytes_moved=atoms_local * 100.0,
                        efficiency=0.05, label="pme-spread"),)
        + row_t + col_t + col_t + row_t
        + (comm.compute(flops=atoms_local * 300.0,
                        bytes_moved=atoms_local * 100.0,
                        efficiency=0.05, label="pme-gather"),
           # integration + constraints (memory-bound)
           comm.compute(flops=atoms_local * 60.0,
                        bytes_moved=atoms_local * 72.0,
                        efficiency=0.6, label="integrate")))
    for _step in range(steps):
        yield step
    # end-of-run global reduction (energies)
    yield comm.allreduce(Phantom(64.0), label="energies")
    return atoms_local


def hpcg_per_rank(comm, local_n: int, iterations: int):
    """Distributed HPCG: per iteration a SpMV + SymGS (both halo-
    exchanging, strictly memory-bound) and two dot reductions."""
    cart = CartGrid.for_ranks(comm.size, 3, periodic=False)
    rows = float(local_n ** 3)
    faces = phantom_faces((local_n, local_n, local_n), itemsize=8)
    halo, _keys = halo_batch(comm, cart, faces)
    dot = comm.allreduce(Phantom(16.0), label="dot")
    iteration = ()
    for label, passes in (("spmv", 1.0), ("symgs", 2.0)):
        iteration += halo + (
            comm.compute(flops=passes * 54.0 * rows,
                         bytes_moved=passes * 27.0 * 12.0 * rows,
                         efficiency=0.7, label=label),)
    iteration += (dot, dot)
    for _it in range(iterations):
        yield iteration
    return rows


def dist_circuit_batch(comm, state, u, gates, gate_efficiency=0.6):
    """``dist_circuit`` on a phantom register: the whole planned circuit
    as *one* batch -- per gate a ``Sendrecv`` with the partner if it is
    non-local, then the gate's ``Compute``."""
    if not is_unitary(np.asarray(u)):
        raise ValueError("gate is not unitary")
    steps, layout = gate_plan(state.n_qubits, state.rank_bits, gates,
                              tuple(state.layout))
    half = Phantom(state.local_amplitudes // 2 * AMP_BYTES)
    gate = _gate(comm, state, gate_efficiency)
    batch, swap = [], {}
    for _qubit, _pos, bit in steps:
        if bit is not None:
            if bit not in swap:     # one op per partner, reused
                swap[bit] = _swap(comm, bit, half)
            batch.append(swap[bit])
        batch.append(gate)
    yield tuple(batch)
    u = np.asarray(u, dtype=np.complex128)
    state.history += [(u, qubit) for qubit, _pos, _bit in steps]
    state.layout[:] = layout
    return sum(bit is not None for _qubit, _pos, bit in steps)


def juqcs_per_rank(comm, n_qubits, gates):
    """``juqcs_program`` in phantom mode (``real=False``)."""
    state = dist_zero_state(comm, n_qubits, real=False)
    nonlocal_count = yield from dist_circuit_batch(comm, state, H, gates)
    return None, nonlocal_count


def bisection_per_rank(comm, message_bytes: float, rounds: int):
    """Pair rank i of the lower half with rank i of the upper half and
    bounce bidirectional messages (generator; returns per-rank seconds
    of exchange time for bandwidth extraction)."""
    half = comm.size // 2
    if comm.rank >= 2 * half:
        # the odd rank out sits the bounce loop out but must still post
        # the same barrier *sequence* as the paired ranks: barriers
        # match by position on the communicator, so posting only one
        # leaves everyone else's second barrier incomplete (deadlock at
        # odd rank counts -- caught by COMM501 and the step engine)
        yield comm.barrier(label="start")
        yield comm.barrier(label="stop")
        return 0.0
    partner = comm.rank + half if comm.rank < half else comm.rank - half
    # the whole bounce loop is one batch, so the engine runs it for
    # every pair at once (a column sweep)
    bounce = comm.sendrecv(partner, Phantom(message_bytes), partner, tag=9)
    yield (comm.barrier(label="start"),) + (bounce,) * rounds + \
        (comm.barrier(label="stop"),)
    return rounds * message_bytes


#: ``name -> (job program, per-rank generator, small args)``
PROGRAMS = {
    "icon": (icon.icon_timing_program, icon_per_rank, (1e6, 1e9, 3, 0.5)),
    "megatron": (ai.megatron_timing_program, megatron_per_rank, (3,)),
    "mmoclip": (ai.mmoclip_timing_program, mmoclip_per_rank, (3,)),
    "resnet": (ai.resnet_timing_program, resnet_per_rank, (3,)),
    "qe": (qe.qe_timing_program, qe_per_rank, ((32, 32, 32), 64, 2)),
    "chroma": (chroma.chroma_timing_program, chroma_per_rank,
               ((4, 4, 4, 4), 2, 2, 3)),
    "dynqcd": (dynqcd.dynqcd_timing_program, dynqcd_per_rank,
               ((4, 4, 4, 4), 2, 3)),
    "nekrs": (nekrs.nekrs_timing_program, nekrs_per_rank, (1e5, 2, 3, 2)),
    "nastja": (nastja.nastja_timing_program, nastja_per_rank,
               ((64, 64, 64), 3)),
    "picongpu": (picongpu.picongpu_timing_program, picongpu_per_rank,
                 ((64, 64, 64), 3)),
    "parflow": (parflow.parflow_timing_program, parflow_per_rank,
                ((64, 64, 32), 2, 2, 3)),
    "soma": (soma.soma_timing_program, soma_per_rank, (1000, 32, 16, 3)),
    "arbor": (arbor.arbor_timing_program, arbor_per_rank, (1e6, 7, 3, 1.3)),
    "gromacs": (gromacs.gromacs_timing_program, gromacs_per_rank,
                (1_000_000, 3, 64)),
    "hpcg": (hpcg.hpcg_timing_program, hpcg_per_rank, (16, 3)),
}
#: the per-rank generator each job program replaced
PER_RANK = {job: old for job, old, _ in PROGRAMS.values()} | {
    juqcs_timing_program: juqcs_per_rank,
    bisection_program: bisection_per_rank}


def straggling(machine):
    """``machine`` under a fault plan: node 0 straggles (its devices run
    2.5x slower, so compute columns differ per rank) and inter-cell
    links keep 37 % of their bandwidth."""
    plan = FaultPlan(stragglers=(StragglerFault(node=0, factor=2.5),),
                     links=(LinkFault("inter_cell", 0.37),))
    slow = {f.node: f.factor for f in plan.stragglers}
    devices = tuple(d.degraded(slow[node]) if node in slow else d
                    for d, node in zip(machine.devices,
                                       machine.nodes_of_rank))
    return replace(machine, devices=devices, network=machine.network.degraded(
        FaultInjector(plan).degradation()))


#: ``13nodes``: Megatron's dp communicators of nodes 0 and 12 hold two
#: ranks, all others one -- communicators of unequal size in one column
MACHINES = {
    **{f"{n}ranks": (lambda n=n: Machine.on(juwels_booster(), n))
       for n in (1, 2, 3, 4, 8)},
    "msa": lambda: Machine.msa(cluster_nodes=1, booster_nodes=1),
    "straggler": lambda: straggling(Machine.booster(2)),
    "13nodes": lambda: Machine.booster(13),
}


def snapshot(spmd):
    """Values, clocks and traces as JSON, each trace bucket in insertion
    order (the order ``sum()`` over it sees)."""
    return json.dumps([[_canon(v) for v in spmd.values], spmd.clocks,
                       [[t.compute, t.comm, t.bytes_sent, t.ops]
                        for t in spmd.traces]])


@pytest.fixture
def stepped(monkeypatch):
    """Counts ranks the production engine steps one op at a time."""
    seen = Counter()
    real = VmpiEngine._step_rank

    def counting(self, r):
        seen[type(self).__name__] += 1
        return real(self, r)

    monkeypatch.setattr(VmpiEngine, "_step_rank", counting)
    return seen


# -- (a) small machines, both schedulers ---------------------------------------

@pytest.mark.parametrize("mach", MACHINES)
@pytest.mark.parametrize("prog", PROGRAMS)
def test_job_program_is_the_per_rank_program(prog, mach, stepped):
    job, old, args = PROGRAMS[prog]
    machine = MACHINES[mach]()
    new = VmpiEngine(machine).run(job, args=args)
    assert stepped["VmpiEngine"] == 0       # columns, never a rank step
    want = snapshot(new)
    for engine, program in ((VmpiEngine, old), (ReferenceEngine, old),
                            (ReferenceEngine, job)):
        assert snapshot(engine(machine).run(program, args=args)) == want, \
            (engine.__name__, program.__name__)
    assert sum(t.ops for t in new.traces) > 0


#: JUQCS needs a power-of-two rank count; the MSA job mixes devices and
#: pairs cluster ranks with booster ranks
COLUMN_MACHINES = {k: MACHINES[k]
                   for k in ("1ranks", "2ranks", "4ranks", "8ranks", "msa")}


def column_args(prog, nranks, message_bytes):
    """Arguments that move ``message_bytes`` per Sendrecv: JUQCS ships
    half of a rank's ``2**m`` amplitudes."""
    if prog is juqcs_timing_program:
        local_qubits = int(np.log2(message_bytes / AMP_BYTES)) + 1
        return (int(np.log2(nranks)) + local_qubits, 12)
    return (message_bytes, 4)


@pytest.mark.parametrize("message_bytes", [4 * KIB, 16 * MIB],
                         ids=["eager", "rendezvous"])
@pytest.mark.parametrize("mach", COLUMN_MACHINES)
@pytest.mark.parametrize("prog", [juqcs_timing_program, bisection_program],
                         ids=["juqcs", "bisection"])
def test_juqcs_and_linktest_are_their_batched_generators(prog, mach,
                                                         message_bytes,
                                                         stepped):
    machine = COLUMN_MACHINES[mach]()
    args = column_args(prog, machine.nranks, message_bytes)
    new = VmpiEngine(machine).run(prog, args=args)
    old = PER_RANK[prog]
    odd = prog is bisection_program and machine.nranks % 2
    # an odd rank count has a None in the bounce column: rank by rank
    assert (stepped["VmpiEngine"] > 0) == bool(odd)
    if odd:
        # the job returns one value for all ranks; the generator's odd
        # rank out returned 0.0
        assert new.values[-1] == 4 * message_bytes
        new.values[-1] = 0.0
    want = snapshot(new)
    for engine, program in ((VmpiEngine, old), (ReferenceEngine, old),
                            (ReferenceEngine, prog)):
        got = engine(machine).run(program, args=args)
        if odd and program is prog:
            got.values[-1] = 0.0
        assert snapshot(got) == want, (engine.__name__, program.__name__)
    assert sum(t.ops for t in new.traces) > 0


# -- (c) what is not columns runs rank by rank -----------------------------------

def skewed(comm):
    return comm.compute(flops=(comm.rank + 1) * 1e9, efficiency=0.5,
                        label="skew")


def mismatch_job(world):
    n = world.size
    ops = tuple(world.barrier() if r else world.allreduce(Phantom(8.0))
                for r in range(n))
    return ((), (world.compute(flops=1e9, label="k"), ops), 2, ()), None


def mismatch_per_rank(comm):
    step = (comm.compute(flops=1e9, label="k"),
            comm.barrier() if comm.rank else comm.allreduce(Phantom(8.0)))
    for _ in range(2):
        yield step


def unmatched_job(world):
    # everyone sends to rank 0 and receives from its left: no matching
    ring = tuple(world.sendrecv(0, Phantom(8.0), (r - 1) % world.size)
                 for r in range(world.size))
    return ((world.barrier(),), (ring,), 1, ()), None


def unmatched_per_rank(comm):
    yield comm.barrier()
    yield (comm.sendrecv(0, Phantom(8.0), (comm.rank - 1) % comm.size),)


#: one face per dimension on an open grid: a rank on the low wall has
#: nothing to send, its right neighbour waits for it
ONE_SIDED = ((0, -1), (1, -1))


def unpaired_job(world):
    cart = CartGrid.for_ranks(world.size, 2, periodic=False)
    faces = {k: Phantom(64.0) for k in ONE_SIDED}
    return ((), (world.compute(flops=1e9, label="k"),)
            + world.halo(cart, faces), 2, ()), None


def unpaired_per_rank(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=False)
    faces = {k: Phantom(64.0) for k in ONE_SIDED}
    halo, _keys = halo_batch(comm, cart, faces)
    step = (comm.compute(flops=1e9, label="k"),) + halo
    for _ in range(2):
        yield step


FAILURES = {"mismatched_collective": (mismatch_job, mismatch_per_rank, 3),
            "unmatched_sendrecv": (unmatched_job, unmatched_per_rank, 4),
            "unpaired_halo": (unpaired_job, unpaired_per_rank, 6)}


@pytest.mark.parametrize("case", FAILURES)
def test_what_is_not_columns_fails_like_the_per_rank_path(case):
    job, old, nranks = FAILURES[case]
    machine = Machine.on(juwels_booster(), nranks)
    errors = set()
    for engine in (VmpiEngine, ReferenceEngine):
        for program in (job, old):
            with pytest.raises(VmpiError) as err:
                engine(machine).run(program)
            errors.add((type(err.value).__name__, str(err.value)))
    assert len(errors) == 1, errors


def test_a_job_program_must_return_a_schedule():
    def not_a_job(world):
        return None

    with pytest.raises(TypeError, match="must return"):
        VmpiEngine(Machine.on(juwels_booster(), 2)).run(not_a_job)
    with pytest.raises(TypeError, match="takes no rank_kwargs"):
        VmpiEngine(Machine.on(juwels_booster(), 2)).run(
            soma.soma_timing_program, args=(10, 2, 2, 1),
            rank_kwargs=[{}, {}])


def test_a_halo_grid_must_tile_the_world():
    def job(world):
        cart = CartGrid.for_ranks(world.size + 1, 2)
        return ((), world.halo(cart, phantom_faces((4, 4))), 1, ()), None

    with pytest.raises(ValueError, match="does not tile"):
        VmpiEngine(Machine.on(juwels_booster(), 3)).run(job)


def test_a_split_must_tile_the_world():
    """A color (or key) list shorter than the world is refused before any
    communicator is allocated, naming both lengths."""
    def job(world, key):
        split, _table = world.split([0, 0, 1], key=key)
        return ((split,), (), 1, ()), None

    for key in (None, [0, 1, 2]):
        engine = VmpiEngine(Machine.on(juwels_booster(), 8))
        with pytest.raises(ValueError, match="3 colors and .* world of 8"):
            engine.run(job, args=(key,))
        assert list(engine._comms) == [0]


def test_a_table_refuses_a_negative_size():
    """Like ``Phantom(-1.0)`` in the program, at the line that asks."""
    world = World(VmpiEngine(Machine.on(juwels_booster(), 4)))
    _split, table = world.split([0, 0, 1, 1])
    for method in (table.allreduce, table.shift, table.alltoall):
        with pytest.raises(ValueError, match="non-negative"):
            method(np.array([8.0, 8.0, -1.0, 8.0]))


def per_rank_split(next_id, members, payloads):
    """The per-rank split allocation before ``_split_table``, kept
    verbatim: ``[(comm id, new local rank)]`` per member, the new
    communicators' members."""
    groups = defaultdict(list)
    for local, (color, key) in enumerate(payloads):
        groups[color].append((key, members[local], local))
    results = [None] * len(members)
    comms = {}
    for color in sorted(groups):
        ordered = sorted(groups[color])
        comms[next_id] = tuple(g for _, g, _ in ordered)
        for new_local, (_, _g, old_local) in enumerate(ordered):
            results[old_local] = (next_id, new_local)
        next_id += 1
    return results, comms


@pytest.mark.parametrize("seed", range(12))
def test_split_table_allocates_like_the_per_rank_split(seed):
    """One allocation serves both paths: ``_do_split`` (per rank, any
    member order, negative colors, tied keys) and ``World.split``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    members = tuple(rng.permutation(n + 3)[:n].tolist())
    payloads = list(zip(rng.integers(-2, 3, n).tolist(),
                        rng.integers(-1, 2, n).tolist()))
    engine = VmpiEngine(Machine.on(juwels_booster(), n + 3))
    engine._next_comm_id = 5
    want, comms = per_rank_split(5, members, payloads)
    got = engine._do_split(members, payloads)
    assert [(c.comm_id, c.rank) for c in got] == want
    assert all(c.members == comms[c.comm_id] for c in got)
    assert {cid: engine._comms[cid] for cid in comms} == comms
    assert engine._next_comm_id == 5 + len(comms)
    world = World(VmpiEngine(Machine.on(juwels_booster(), n)))
    _split, table = world.split(*zip(*payloads))
    want, comms = per_rank_split(1, world.members, payloads)
    assert [(table[r].comm_id, table[r].rank, table[r].size)
            for r in range(n)] == [(c, i, len(comms[c])) for c, i in want]


def split_job(world, colors, nbytes):
    split, table = world.split(colors)
    step = (table.allreduce(nbytes * (1 + table.rank), label="ar"),
            *table.shift(nbytes * table.size, tag=3),
            table.alltoall(nbytes * (2 + table.rank) / table.size,
                           label="a2a"))
    return ((split,), step, 2, ()), table.size.tolist()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("nbytes", [64.0, 1e6], ids=["eager", "rendezvous"])
def test_split_table_columns_are_the_per_rank_program(seed, nbytes, stepped):
    """A split table's allreduce, ring and personalised alltoall (sizes
    differing per rank), planned per communicator, are the rank-by-rank
    program; a rank alone in its communicator posts no ring op, so such
    a job runs rank by rank on both schedulers."""
    rng = np.random.default_rng(seed)
    machine = Machine.on(juwels_booster(), int(rng.integers(2, 13)))
    colors = rng.integers(0, 1 + seed % 4, machine.nranks).tolist()
    new = VmpiEngine(machine).run(split_job, args=(colors, nbytes))
    alone = 1 in new.values[0]
    assert (stepped["VmpiEngine"] > 0) == alone
    got = ReferenceEngine(machine).run(split_job, args=(colors, nbytes))
    assert snapshot(got) == snapshot(new)
    assert {"ar", "a2a"} <= set(new.traces[0].comm)


def test_zero_steps_books_no_step_label():
    """A label only the step touches must not appear when it never ran."""
    job, old, _ = PROGRAMS["arbor"]
    machine = Machine.on(juwels_booster(), 4)
    args = (1e6, 2, 3, 1.0)                 # no epoch: the epilogue only
    new = VmpiEngine(machine).run(job, args=args)
    assert "spike-exchange" not in new.traces[0].comm
    assert snapshot(new) == snapshot(VmpiEngine(machine).run(old, args=args))


# -- (b) and (d): the figures, in a fresh interpreter ----------------------------

#: what the child runs: the points of the first two are checked against
#: the per-rank generators, the last one only counted
FIGURES = (("fig2",), ("fig3", "--nodes", "16,128"), ("fig3", "--nodes", "936"))


#: a halo app, the split-communicator app and GROMACS (both), with the
#: most ranks ``fig2`` runs them on: the op and ``Comm`` objects their
#: job programs build must not grow with the rank count
CONSTANT_BUILDS = {"icon": 960, "megatron": 768, "gromacs": 24}


def figure_runs() -> dict:
    """Per figure and job program: runs, rank steps, phases planned,
    columns planned against distinct columns -- and the points whose
    per-rank generator disagrees; per figure, the ``Exchange`` ops any
    rank posted one by one; per job program and rank count, the most
    ``Exchange``, ``Collective`` and ``Comm`` objects one ``fig2`` run
    built (:data:`CONSTANT_BUILDS` also at 8 ranks).  Run in a fresh
    interpreter by :func:`test_figures_run_job_programs_as_columns`."""
    from repro.cli import main
    from repro.vmpi import engine as engine_module
    from repro.vmpi.comm import Comm
    from repro.vmpi.ops import Collective, Exchange

    counts: dict = {}
    current, points = [], []
    built: dict = {}
    objects = Counter()
    posts = Counter()
    real_inits = [(cls, name, getattr(cls, name)) for cls, name in (
        (Exchange, "__post_init__"), (Collective, "__post_init__"),
        (Comm, "__init__"))]

    def constructing(real):
        def init(self, *args, **kw):
            objects["built"] += 1
            return real(self, *args, **kw)
        return init
    real_run, real_step = VmpiEngine._run, VmpiEngine._step_rank
    real_post = VmpiEngine._post_exchange
    real_plans, real_column = engine_module.plan_columns, \
        sweep_module._plan_column
    real_program = AppBenchmark.run_program

    def run(self, fn, *args):
        current.append(counts[figure].setdefault(fn.__name__, Counter()))
        current[-1]["runs"] += 1
        before = objects["built"]
        try:
            return real_run(self, fn, *args)
        finally:
            current.pop()
            if figure in (FIGURES[0], "8 ranks"):
                mine = built.setdefault(fn.__name__, {})
                n = self.machine.nranks
                mine[n] = max(mine.get(n, 0), objects["built"] - before)

    def step(self, r):
        if current:
            current[-1]["rank_steps"] += 1
        return real_step(self, r)

    def post(self, r, op):
        posts[figure] += 1
        return real_post(self, r, op)

    def plans(eng, columns, slots):
        current[-1]["phases"] += 1
        current[-1]["distinct"] += len(set(map(id, columns)))
        return real_plans(eng, columns, slots)

    def column(eng, ops, slots):
        current[-1]["planned"] += 1
        return real_column(eng, ops, slots)

    def program(self, machine, fn, *, args=(), kwargs=None):
        spmd = real_program(self, machine, fn, args=args, kwargs=kwargs)
        if fn in PER_RANK and figure != FIGURES[-1]:
            points.append((machine, fn, args, snapshot(spmd)))
        return spmd

    VmpiEngine._run, VmpiEngine._step_rank = run, step
    VmpiEngine._post_exchange = post
    engine_module.plan_columns, sweep_module._plan_column = plans, column
    AppBenchmark.run_program = program
    for cls, name, real in real_inits:
        setattr(cls, name, constructing(real))
    for figure in FIGURES:
        counts[figure] = {}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(figure)) == 0
    figure = "8 ranks"
    counts[figure] = {}
    for name in CONSTANT_BUILDS:
        job, _old, args = PROGRAMS[name]
        VmpiEngine(Machine.on(juwels_booster(), 8)).run(job, args=args)
    for cls, name, real in real_inits:
        setattr(cls, name, real)
    VmpiEngine._run, VmpiEngine._step_rank = real_run, real_step
    VmpiEngine._post_exchange = real_post
    engine_module.plan_columns, sweep_module._plan_column = \
        real_plans, real_column
    AppBenchmark.run_program = real_program
    mismatches = [
        (fn.__name__, machine.nranks) for machine, fn, args, want in points
        if snapshot(VmpiEngine(machine).run(PER_RANK[fn], args=args)) != want]
    return {"counts": {" ".join(f): c for f, c in counts.items()
                       if f in FIGURES},
            "points": len(points), "max_ranks": max(p[0].nranks
                                                     for p in points),
            "mismatches": mismatches,
            "exchange_posts": {" ".join(f): posts[f] for f in FIGURES},
            "built": {name: {str(n): c for n, c in sizes.items()}
                      for name, sizes in built.items()}}


def test_figures_run_job_programs_as_columns():
    """Every point ``fig2`` and ``fig3 --nodes 16,128`` run is its
    per-rank generator (production engine: the reference is too slow
    at 960 ranks); no figure steps a rank of a job program, and each
    job plans every distinct column once; no figure posts an
    ``Exchange`` rank by rank."""
    code = ("import json\n"
            "from tests.test_vmpi_job import figure_runs\n"
            "print(json.dumps(figure_runs()))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["mismatches"] == []
    assert out["points"] == 85 and out["max_ranks"] == 960
    jobs = {p.__name__ for p in PER_RANK}
    assert out["exchange_posts"] == {" ".join(f): 0 for f in FIGURES}
    for figure, expected in (("fig2", 15), ("fig3 --nodes 16,128", 5),
                             ("fig3 --nodes 936", 5)):
        counts = out["counts"][figure]
        assert len(jobs & set(counts)) == expected, figure
        for name in jobs & set(counts):
            c = counts[name]
            assert c.get("rank_steps", 0) == 0, (figure, name)
            assert c["phases"] == 3 * c["runs"], (figure, name)
            assert c["planned"] == c["distinct"], (figure, name)
        # JUQCS's circuit is columns too
        assert counts["juqcs_timing_program"].get("rank_steps", 0) == 0
    # a halo or split-communicator column is arrays, not an op per rank:
    # the same program builds as many op and Comm objects at 8 ranks as
    # at fig2's largest point
    for name, ranks in CONSTANT_BUILDS.items():
        sizes = out["built"][f"{name}_timing_program"]
        largest = max(sizes, key=int)
        assert int(largest) == ranks and "8" in sizes, (name, sizes)
        assert sizes[largest] == sizes["8"], (name, sizes)
