"""The 7 synthetic benchmarks of the JUPITER Benchmark Suite."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("SyntheticBenchmark",),
    "graph500": (
        "BfsResult", "Graph500Benchmark", "bfs", "build_csr",
        "kronecker_edges", "validate_bfs"
    ),
    "hpcg": ("HpcgBenchmark", "build_27pt", "hpcg_cg", "symgs"),
    "hpl": (
        "HplBenchmark", "blocked_lu", "hpl_flops", "hpl_residual", "lu_solve"
    ),
    "ior": ("IorBenchmark", "ior_functional_run"),
    "linktest": ("LinktestBenchmark", "bisection_program"),
    "osu": ("MESSAGE_SIZES", "OsuBenchmark", "pingpong_program"),
    "stream": ("StreamBenchmark", "gpu_stream_model", "run_stream"),
})
