"""ParFlow: integrated hydrology (Richards equation, multigrid CG)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": ("DOMAIN", "ParflowBenchmark", "parflow_timing_program"),
    "multigrid": (
        "apply_poisson", "jacobi_smooth", "mg_solve", "mgcg_solve", "prolong",
        "rb_gauss_seidel", "restrict", "v_cycle"
    ),
    "richards": ("RichardsColumn", "VanGenuchten"),
})
