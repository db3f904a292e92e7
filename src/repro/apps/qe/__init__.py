"""Quantum ESPRESSO: plane-wave DFT / Car-Parrinello MD."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "ATOMS", "BANDS", "MESH", "QuantumEspressoBenchmark",
        "apply_hamiltonian_serial", "qe_real_program", "qe_timing_program"
    ),
    "fft3d": ("dist_fft3", "dist_ifft3", "gathered_fft3", "slab_range"),
})
