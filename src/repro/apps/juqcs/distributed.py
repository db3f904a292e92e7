"""Distributed state-vector simulation over virtual MPI.

Implements the massively parallel scheme of JUQCS (De Raedt et al.):
2^p ranks each hold 2^(n-p) amplitudes.  Gates on *local* qubits (low
bit positions) apply without communication.  Gates on *global* qubits
(bit positions encoded in the rank index) pair each rank with a partner
differing in that rank bit; the partners exchange **half of their local
amplitudes** -- which is why "many operations require the transfer of
half of all memory, i.e., 2^n/2 complex double-precision numbers, across
the network" (Sec. IV-A2c) -- and then *relabel* qubits instead of
shipping results back:

* the rank with bit 0 keeps the lower local half and receives the
  partner's lower half; the rank with bit 1 keeps/receives the upper
  halves;
* afterwards, the top local bit and the global bit have swapped roles,
  recorded in the ``layout`` permutation (physical bit -> logical qubit);
* the gate then applies locally on the top local bit.

Where each gate lands is one pure plan (:func:`gate_plan`).  Real NumPy
amplitudes (verified exactly against :mod:`.statevector`) go through it
gate by gate in :func:`dist_apply` / :func:`dist_circuit`; timing mode
builds the same plan's ops once, as columns for all ranks, in the job
program :func:`~repro.apps.juqcs.benchmark.juqcs_timing_program`, from
the same :func:`_swap` and :func:`_gate` helpers.  A
:class:`~repro.vmpi.ops.Phantom` register has no amplitudes to apply a
gate to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from ...vmpi import Comm, Phantom
from .statevector import is_unitary, zero_state

#: complex128 amplitude size
AMP_BYTES = 16
#: roofline efficiency of a gate's sweep over the local amplitudes
GATE_EFFICIENCY = 0.6


@dataclass
class DistState:
    """Per-rank piece of the distributed register.

    ``layout[i]`` is the logical qubit stored at physical bit ``i``;
    positions ``0..m-1`` index within the local array, ``m..n-1`` are the
    rank bits.  ``local`` is a complex array (real mode) or a Phantom.
    """

    n_qubits: int
    rank_bits: int
    local: "np.ndarray | Phantom"
    layout: list[int] = field(default_factory=list)
    #: recorded (matrix, logical qubit) ops for reference replay
    history: list[tuple[np.ndarray, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layout:
            self.layout = list(range(self.n_qubits))

    @property
    def local_bits(self) -> int:
        """Number of local (within-rank) bit positions m = n - p."""
        return self.n_qubits - self.rank_bits

    @property
    def local_amplitudes(self) -> int:
        return 1 << self.local_bits

    @property
    def local_bytes(self) -> float:
        return float(self.local_amplitudes * AMP_BYTES)

    def position_of(self, qubit: int) -> int:
        """Physical bit position currently holding a logical qubit."""
        return self.layout.index(qubit)

    def is_local(self, qubit: int) -> bool:
        """Whether a gate on this qubit needs no communication now."""
        return self.position_of(qubit) < self.local_bits


def dist_zero_state(comm: Comm, n_qubits: int, real: bool = True) -> DistState:
    """The |0...0> register distributed over ``comm`` (power-of-two size)."""
    p = comm.size.bit_length() - 1
    if 1 << p != comm.size:
        raise ValueError(f"JUQCS needs a power-of-two rank count, got {comm.size}")
    if n_qubits <= p:
        raise ValueError(
            f"{n_qubits} qubits cannot be split over 2^{p} ranks")
    m = n_qubits - p
    if real:
        local = np.zeros(1 << m, dtype=np.complex128)
        if comm.rank == 0:
            local[0] = 1.0
    else:
        local = Phantom(float((1 << m) * AMP_BYTES))
    return DistState(n_qubits=n_qubits, rank_bits=p, local=local)


@lru_cache(maxsize=256)
def gate_plan(n_qubits: int, rank_bits: int, gates: int | tuple[int, ...],
              layout: tuple[int, ...] | None = None):
    """Route single-qubit gates through the distributed layout (pure).

    ``gates`` lists the logical target qubits, or is a count: that many
    gates, each on the qubit then at the top physical bit -- a rank bit
    whenever ``rank_bits > 0``, so every gate moves half of all memory
    (the benchmark circuit).  Starting from ``layout`` (identity if
    None), returns ``(steps, layout)``: per gate ``(qubit, position,
    rank bit)`` -- the physical bit holding the qubit and, for a
    non-local gate, the rank bit the partners differ in (``None`` for a
    local gate) -- and the layout after the last gate.
    """
    m = n_qubits - rank_bits
    lay = list(range(n_qubits)) if layout is None else list(layout)
    steps = []
    for qubit in (repeat(None, gates) if type(gates) is int else gates):
        qubit = lay[-1] if qubit is None else qubit
        pos = lay.index(qubit)
        bit = None
        if pos >= m:
            if m < 1:
                raise ValueError("non-local gate needs at least one local bit")
            bit = pos - m
            # The top local bit and the global bit swap logical roles.
            lay[pos], lay[m - 1] = lay[m - 1], lay[pos]
        steps.append((qubit, pos, bit))
    return tuple(steps), tuple(lay)


def _local_apply(local: np.ndarray, u: np.ndarray, pos: int) -> None:
    view = local.reshape(-1, 2, 1 << pos)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


def _swap(comm: Comm, rank_bit: int, outgoing):
    """The half-register exchange with the partner across ``rank_bit``."""
    partner = comm.rank ^ (1 << rank_bit)
    return comm.sendrecv(partner, outgoing, partner, tag=77)


def _gate(comm: Comm, state: DistState, gate_efficiency: float):
    """The cost of one gate on the local amplitudes."""
    amps = state.local_amplitudes
    return comm.compute(flops=14.0 * amps, bytes_moved=3.0 * AMP_BYTES * amps,
                        efficiency=gate_efficiency, label="gate")


def _require_amplitudes(state: DistState) -> None:
    if not isinstance(state.local, np.ndarray):
        raise ValueError("a phantom register has no amplitudes to apply a "
                         "gate to (timing mode is juqcs_timing_program)")


def dist_apply(comm: Comm, state: DistState, u: np.ndarray, qubit: int,
               gate_efficiency: float = GATE_EFFICIENCY):
    """Apply a single-qubit gate to a real register (generator; use
    ``yield from``).

    Returns ``True`` if the gate was non-local (needed communication).
    """
    if not is_unitary(np.asarray(u)):
        raise ValueError("gate is not unitary")
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} outside register")
    _require_amplitudes(state)
    state.history.append((np.asarray(u, dtype=np.complex128), qubit))
    ((_, pos, rank_bit),), layout = gate_plan(
        state.n_qubits, state.rank_bits, (qubit,), tuple(state.layout))
    if rank_bit is not None:
        my_bit = (comm.rank >> rank_bit) & 1
        half = state.local_amplitudes // 2
        # bit 0 rank ships its upper half, keeps/receives lower halves;
        # bit 1 rank symmetric with the halves swapped.
        outgoing = state.local[half:].copy() if my_bit == 0 \
            else state.local[:half].copy()
        incoming = yield _swap(comm, rank_bit, outgoing)
        if my_bit == 0:
            # keep own lower half (global bit 0), store the partner's
            # lower half (global bit 1) above it
            state.local[half:] = incoming
        else:
            # keep own upper half (global bit 1), store the partner's
            # upper half (global bit 0) below it
            state.local[:half] = incoming
        pos = state.local_bits - 1      # applies at the top local bit
    state.layout[:] = layout
    _local_apply(state.local, np.asarray(u, dtype=np.complex128), pos)
    yield _gate(comm, state, gate_efficiency)
    return rank_bit is not None


def dist_circuit(comm: Comm, state: DistState, u: np.ndarray,
                 gates: int | tuple[int, ...],
                 gate_efficiency: float = GATE_EFFICIENCY):
    """Apply ``u`` to a real register along a :func:`gate_plan`, gate by
    gate through :func:`dist_apply` (generator; returns the number of
    non-local gates).  ``gates`` is as for :func:`gate_plan`: target
    qubits, or a count of gates on the top physical bit (the benchmark
    circuit).
    """
    if not is_unitary(np.asarray(u)):
        raise ValueError("gate is not unitary")
    _require_amplitudes(state)
    steps, _layout = gate_plan(state.n_qubits, state.rank_bits, gates,
                               tuple(state.layout))
    for qubit, _pos, _bit in steps:
        yield from dist_apply(comm, state, u, qubit, gate_efficiency)
    return sum(bit is not None for _qubit, _pos, bit in steps)


def dist_gather(comm: Comm, state: DistState):
    """Gather and un-permute the full state vector (generator).

    Every rank returns the complete logical-order state; only valid in
    real mode and for small registers (verification path).
    """
    if not isinstance(state.local, np.ndarray):
        raise ValueError("cannot gather a phantom state")
    pieces = yield comm.allgather(state.local)
    full = np.concatenate(pieces)  # physical order: rank bits high
    n = state.n_qubits
    idx = np.arange(full.size)
    logical = np.zeros_like(idx)
    for phys_pos, logical_qubit in enumerate(state.layout):
        logical |= ((idx >> phys_pos) & 1) << logical_qubit
    out = np.zeros_like(full)
    out[logical] = full
    return out


def reference_state(n_qubits: int,
                    history: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Replay a recorded gate history on the single-process simulator."""
    from .statevector import apply_gate

    psi = zero_state(n_qubits)
    for u, qubit in history:
        apply_gate(psi, u, qubit)
    return psi
