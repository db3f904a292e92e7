"""SOMA: Single Chain in Mean Field polymer Monte Carlo."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "benchmark": (
        "BEADS_PER_CHAIN", "CHAINS", "FIELD_GRID", "MC_SWEEPS",
        "SomaBenchmark", "soma_timing_program"
    ),
    "scmf": ("ScmfSystem",),
})
