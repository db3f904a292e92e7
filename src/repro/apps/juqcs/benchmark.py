"""The JUQCS benchmark (Base, High-Scaling S/L, and MSA variants).

Workload (Sec. IV-A2c): successive applications of a single-qubit gate
that requires large memory transfers -- i.e. gates on qubits currently
living in the *rank bits*, each moving half of all memory across the
network.  Sizes:

* Base: n = 36 qubits on 8 nodes (32 GPUs) -> 1 TiB of GPU memory;
* High-Scaling: n = 41 (S, 32 TiB) and n = 42 (L, 64 TiB) on 512 nodes,
  extrapolating to n = 45 / 46 on an exascale partition;
* MSA: n = 34 split half/half between Cluster and Booster memory.

Verification is *exact* (Sec. V-A): the distributed run is compared
against the single-process reference state, and against the theoretical
expectation for the benchmark circuit.
"""

from __future__ import annotations

import math

from ...core.benchmark import BenchmarkResult
from ...core.fom import FigureOfMerit
from ...core.variants import MemoryVariant
from ...units import BYTES_PER_COMPLEX128
from ...vmpi import Comm, Phantom
from ...vmpi.machine import Machine
from ..base import AppBenchmark, pow2_floor
from .distributed import (
    AMP_BYTES,
    GATE_EFFICIENCY,
    _gate,
    _swap,
    dist_circuit,
    dist_gather,
    dist_zero_state,
    gate_plan,
    reference_state,
)
from .statevector import H

import numpy as np

#: Paper sizes: Base qubits on the reference 8 nodes.
BASE_QUBITS = 36
#: High-Scaling qubit counts per variant on 512 preparation nodes.
HS_QUBITS = {MemoryVariant.SMALL: 41, MemoryVariant.LARGE: 42}
#: Exascale extrapolation targets (rules in the benchmark description).
EXA_QUBITS = {MemoryVariant.SMALL: 45, MemoryVariant.LARGE: 46}
#: Gates applied by the benchmark kernel.
DEFAULT_GATES = 12


def state_vector_bytes(qubits: int) -> float:
    """Memory of an n-qubit double-precision state vector (16 B * 2^n)."""
    if qubits < 1:
        raise ValueError("need at least one qubit")
    return float(BYTES_PER_COMPLEX128) * 2.0 ** qubits


def qubits_for_memory(total_bytes: float) -> int:
    """Largest register that fits in ``total_bytes`` of memory."""
    if total_bytes < BYTES_PER_COMPLEX128 * 2:
        raise ValueError("not enough memory for one qubit")
    return int(math.floor(math.log2(total_bytes / BYTES_PER_COMPLEX128)))


def juqcs_program(comm, n_qubits: int, gates: int):
    """The benchmark kernel on real amplitudes: ``gates`` single-qubit
    gates, each targeting a logical qubit currently held in the rank
    bits (maximal transfers).

    Always the *top* rank bit: the partner is half the machine away, so
    every gate moves half of all memory across the widest cut (the
    benchmark's "large memory transfers" rule).  Returns (max |psi -
    psi_ref|, #non-local gates).
    """
    state = dist_zero_state(comm, n_qubits)
    nonlocal_count = yield from dist_circuit(comm, state, H, gates)
    full = yield from dist_gather(comm, state)
    ref = reference_state(n_qubits, state.history)
    return float(np.max(np.abs(full - ref))), nonlocal_count


def juqcs_timing_program(world, n_qubits: int,
                         gates: int | tuple[int, ...]):
    """:func:`juqcs_program`'s circuit on a phantom register (a job
    program, :mod:`repro.vmpi.job`), from the same :func:`gate_plan`.

    Every gate is one shared ``Compute``; a non-local gate is first the
    half-register ``Sendrecv`` with the partner across its rank bit, one
    column per distinct bit, built rank by rank on views of the world
    communicator.  Returns (None, #non-local gates).
    """
    state = dist_zero_state(world, n_qubits, real=False)
    steps, _layout = gate_plan(n_qubits, state.rank_bits, gates)
    ranks = [Comm(world.comm_id, r, world.members) for r in range(world.size)]
    half = Phantom(state.local_amplitudes // 2 * AMP_BYTES)
    swaps = {bit: tuple(_swap(comm, bit, half) for comm in ranks)
             for bit in dict.fromkeys(b for _, _, b in steps if b is not None)}
    gate = _gate(world, state, GATE_EFFICIENCY)
    circuit = tuple(op for _qubit, _pos, bit in steps
                    for op in ((gate,) if bit is None else (swaps[bit], gate)))
    return ((), circuit, 1, ()), \
        (None, sum(bit is not None for _qubit, _pos, bit in steps))


class JuqcsBenchmark(AppBenchmark):
    """Runnable JUQCS benchmark against the simulated machine."""

    NAME = "JUQCS"
    fom = FigureOfMerit(name="gate-sequence runtime", unit="s")

    def qubits_for(self, nodes: int, variant: MemoryVariant | None,
                   weak: bool = True) -> int:
        """Register size for a job.

        Weak mode (the JUQCS rule): per-rank memory is pinned to the
        variant fraction of the device, so qubits grow with log2(ranks).
        Strong mode returns the fixed Base size regardless of nodes.
        """
        if not weak:
            return BASE_QUBITS
        ranks = pow2_floor(nodes * 4)
        v = self.variant_or_default(variant)
        local_qubits = qubits_for_memory(self.device_bytes(v))
        return local_qubits + int(math.log2(ranks))

    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        ranks = pow2_floor(nodes * 4)
        used_nodes = max(1, ranks // 4)
        machine = self.machine(used_nodes, ranks_per_node=min(4, ranks))
        v = self.variant_or_default(variant)
        clamped = False
        if real:
            # exact verification at laptop scale: shrink the register but
            # keep at least one local bit per rank
            p = int(math.log2(ranks))
            n = max(p + 1, min(14, p + 1 + int(8 * scale)))
        elif variant is not None or used_nodes >= 64:
            # High-Scaling rule: per-rank memory pinned (weak scaling)
            n = self.qubits_for(used_nodes, v)
        else:
            # Base rule: the fixed n = 36 workload, strong-scaled; on
            # too few nodes the register is clamped to what fits (the
            # memory-pressure case, like Arbor's 4-node Fig. 2 point)
            n = BASE_QUBITS
            p = int(math.log2(ranks))
            capacity_qubits = qubits_for_memory(self.device_bytes(v)) + p
            if n > capacity_qubits:
                n = capacity_qubits
                clamped = True
        gates = DEFAULT_GATES
        spmd = self.run_program(
            machine, juqcs_program if real else juqcs_timing_program,
            args=(n, gates))
        verified: bool | None = None
        verification = ""
        if real:
            err = max(val[0] for val in spmd.values)
            verified = err == 0.0
            verification = f"exact: max |psi - psi_ref| = {err:.1e}"
        nonlocal_gates = spmd.values[0][1]
        fom = spmd.elapsed * (1.3 if clamped else 1.0)
        return self.result(
            used_nodes, spmd, variant=v, verified=verified,
            verification=verification, fom_seconds=fom,
            workload_clamped=clamped, qubits=n, gates=gates,
            nonlocal_gates=nonlocal_gates,
            state_bytes=state_vector_bytes(n),
            compute_seconds=spmd.compute_seconds,
            comm_seconds=spmd.comm_seconds)

    def run_msa(self, cluster_nodes: int = 4, booster_nodes: int = 4,
                qubits: int | None = None, real: bool = True,
                gates: int = DEFAULT_GATES) -> BenchmarkResult:
        """The MSA variant: the register is split across Cluster and
        Booster memory, MPI bridging the modules (n = 34 in the paper;
        shrunk by default for real verification)."""
        machine = Machine.msa(cluster_nodes=cluster_nodes,
                              booster_nodes=booster_nodes)
        ranks = pow2_floor(machine.nranks)
        if ranks != machine.nranks:
            raise ValueError("MSA split must give a power-of-two rank count")
        p = int(math.log2(ranks))
        n = qubits if qubits is not None else (p + 6 if real else 34)
        spmd = self.run_program(
            machine, juqcs_program if real else juqcs_timing_program,
            args=(n, gates))
        verified = None
        verification = ""
        if real:
            err = max(val[0] for val in spmd.values)
            verified = err == 0.0
            verification = f"exact: max |psi - psi_ref| = {err:.1e}"
        return self.result(cluster_nodes + booster_nodes, spmd,
                           verified=verified, verification=verification,
                           qubits=n, gates=gates, msa=True)
