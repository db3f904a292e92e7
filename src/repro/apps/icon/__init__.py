"""ICON: icosahedral non-hydrostatic weather & climate model."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "FOM_STEPS", "IconBenchmark", "SUBCASES", "icon_timing_program"
    ),
    "dynamics": (
        "ShallowWaterState", "gaussian_hill", "geostrophic_state", "step_rk3",
        "tendencies"
    ),
})
