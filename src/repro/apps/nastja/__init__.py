"""NAStJA: cellular Potts model for biological tissue (CPU-only)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "DOMAIN", "MC_STEPS", "NastjaBenchmark", "nastja_timing_program"
    ),
    "potts": ("MEDIUM", "PottsModel", "checkerboard_tissue"),
})
