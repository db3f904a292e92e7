"""The 16 application benchmarks of the JUPITER Benchmark Suite.

Each subpackage implements one application (or a shared substrate for a
family): the genuine algorithm in NumPy, an SPMD program over virtual
MPI, and a :class:`~repro.core.benchmark.Benchmark` subclass.  Which
class implements which Table II name is declared once, in
:data:`repro.core.registry.IMPLEMENTATIONS`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("AppBenchmark", "pow2_floor"),
})
