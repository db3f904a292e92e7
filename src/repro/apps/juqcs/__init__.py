"""JUQCS: massively parallel universal quantum-computer simulator."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "BASE_QUBITS", "EXA_QUBITS", "HS_QUBITS", "JuqcsBenchmark",
        "juqcs_program", "juqcs_timing_program", "qubits_for_memory",
        "state_vector_bytes"
    ),
    "distributed": (
        "AMP_BYTES", "DistState", "dist_apply", "dist_circuit", "dist_gather",
        "dist_zero_state", "gate_plan", "reference_state"
    ),
    "statevector": (
        "Circuit", "H", "I2", "S", "T", "X", "Y", "Z", "apply_controlled",
        "apply_gate", "is_unitary", "norm", "probabilities", "rx", "ry", "rz",
        "zero_state"
    ),
})
