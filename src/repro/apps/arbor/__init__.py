"""Arbor: morphologically detailed neural network simulation."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "ArborBenchmark", "arbor_real_program", "arbor_timing_program"
    ),
    "cable": ("CableDiscretisation", "hines_solve", "tree_matrix_dense"),
    "channels": ("HHChannels", "rates_h", "rates_m", "rates_n"),
    "morphology": ("Morphology", "allen_like_cell", "random_tree"),
    "network": ("Cell", "RingNetwork", "SPIKE_THRESHOLD", "simulate_rings"),
})
