"""PIConGPU: relativistic particle-in-cell (Kelvin-Helmholtz case)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "GRIDS", "MAX_NODES", "PARTICLES_PER_CELL", "PicongpuBenchmark",
        "khi_setup_2d", "picongpu_timing_program", "run_khi_2d"
    ),
    "fields": ("YeeGrid2D", "plane_wave"),
    "particles": (
        "ParticleSpecies", "advance_positions", "boris_push", "cic_weights",
        "deposit_charge", "deposit_current", "gather_fields"
    ),
})
