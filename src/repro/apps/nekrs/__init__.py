"""nekRS: GPU spectral-element Navier-Stokes (Rayleigh-Bénard case)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "BASE_ELEMENTS", "HS_ELEMENTS", "NekrsBenchmark",
        "STRONG_SCALING_LIMIT", "conduction_nusselt", "nekrs_timing_program"
    ),
    "mesh": ("StripMesh", "solve_poisson"),
    "sem": (
        "derivative_matrix", "flops_per_element", "gll_nodes_weights",
        "gradient_3d", "mass_apply", "stiffness_apply", "tensor_apply_3d"
    ),
})
