"""Reproduction of "Application-Driven Exascale: The JUPITER Benchmark Suite".

Top-level subpackages:

* :mod:`repro.cluster` -- simulated machine (hardware, topology, network,
  storage, scheduler, energy),
* :mod:`repro.vmpi` -- deterministic virtual-MPI SPMD engine,
* :mod:`repro.jube` -- JUBE-style result tables,
* :mod:`repro.core` -- the procurement methodology (FOMs, categories,
  memory variants, TCO, High-Scaling extrapolation, suite registry),
* :mod:`repro.apps` -- the 16 application benchmarks,
* :mod:`repro.synthetic` -- the 7 synthetic benchmarks,
* :mod:`repro.analysis` -- tables, figures and performance models.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core.suite": ("load_suite",),
})
__all__.append("__version__")
