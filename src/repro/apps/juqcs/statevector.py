"""Single-process universal gate-based quantum-computer simulation.

The computational core of JUQCS (Sec. IV-A2c): an n-qubit register is a
rank-n tensor of 2^n complex doubles; a single-qubit gate on qubit q is
a 2x2 matrix applied across the q-th tensor index, a controlled gate
applies on the subspace where the control bit is set.  This module is
the exact (laptop-scale) reference against which the distributed
implementation is verified bit-for-bit.

Bit convention: qubit 0 is the *least significant* bit of the basis
index, so amplitude ``psi[i]`` belongs to the computational basis state
whose binary representation (LSB first) gives the qubit values.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# -- standard gate matrices -------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def rx(theta: float) -> np.ndarray:
    """Rotation around X by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """Rotation around Y by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    """Rotation around Z by ``theta``."""
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]],
                    dtype=np.complex128)


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    """Check a gate matrix for unitarity.

    The verdict is remembered per matrix *content* (never per object),
    so a circuit that applies one gate a million times validates it
    once, while a gate corrupted in place is a new content and is
    checked again.
    """
    u = np.asarray(u, dtype=np.complex128)
    return u.shape == (2, 2) and _unitary_2x2(u.tobytes(), atol)


@lru_cache(maxsize=1024)
def _unitary_2x2(raw: bytes, atol: float) -> bool:
    u = np.frombuffer(raw, dtype=np.complex128).reshape(2, 2)
    return bool(np.allclose(u.conj().T @ u, np.eye(2), atol=atol))


def apply_gate(psi: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit gate in place; returns ``psi``.

    Reshapes the state to (high, 2, low) around the target bit so the
    update is two vectorised AXPY-like operations -- the same access
    pattern the real code implements on GPUs.
    """
    n = _nqubits(psi)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside register of {n}")
    low = 1 << qubit
    view = psi.reshape(-1, 2, low)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1
    return psi


def apply_controlled(psi: np.ndarray, u: np.ndarray, control: int,
                     target: int) -> np.ndarray:
    """Apply a controlled single-qubit gate (e.g. CNOT = controlled-X)."""
    n = _nqubits(psi)
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} outside register of {n}")
    idx = np.arange(psi.size)
    mask = (idx >> control) & 1 == 1
    t0 = mask & ((idx >> target) & 1 == 0)
    t1 = mask & ((idx >> target) & 1 == 1)
    a0 = psi[t0].copy()
    a1 = psi[t1]
    psi[t0] = u[0, 0] * a0 + u[0, 1] * a1
    psi[t1] = u[1, 0] * a0 + u[1, 1] * a1
    return psi


def zero_state(n: int) -> np.ndarray:
    """|0...0> register of ``n`` qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    return psi


def norm(psi: np.ndarray) -> float:
    """State norm (must stay 1 under unitaries)."""
    return float(np.sqrt(np.sum(np.abs(psi) ** 2)))


def probabilities(psi: np.ndarray, qubit: int) -> tuple[float, float]:
    """Marginal probabilities (p0, p1) of one qubit."""
    n = _nqubits(psi)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside register of {n}")
    view = psi.reshape(-1, 2, 1 << qubit)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    return 1.0 - p1, p1


def _nqubits(psi: np.ndarray) -> int:
    size = psi.size
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("state length must be a power of two")
    return n


class Circuit:
    """A recorded gate sequence, replayable on any backend.

    Used to run the identical program on the single-process reference
    and on the distributed simulator for exact verification.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.ops: list[tuple[str, np.ndarray, tuple[int, ...]]] = []

    def gate(self, u: np.ndarray, qubit: int, name: str = "u") -> "Circuit":
        """Append a single-qubit gate."""
        if not is_unitary(u):
            raise ValueError(f"gate {name!r} is not unitary")
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} outside register")
        self.ops.append((name, np.asarray(u, dtype=np.complex128), (qubit,)))
        return self

    def h(self, qubit: int) -> "Circuit":
        return self.gate(H, qubit, "h")

    def x(self, qubit: int) -> "Circuit":
        return self.gate(X, qubit, "x")

    def run_reference(self) -> np.ndarray:
        """Execute on the single-process simulator."""
        psi = zero_state(self.n_qubits)
        for _name, u, qubits in self.ops:
            apply_gate(psi, u, qubits[0])
        return psi
