"""Shared plumbing for application benchmark implementations.

Every application in :mod:`repro.apps` follows the same pattern:

* a pure algorithm layer (NumPy), unit-tested on its own;
* an SPMD generator program running that algorithm through virtual MPI,
  with real payloads at small scale (``real=True``, verification) or
  phantom payloads at paper scale (``real=False``, timing);
* a :class:`~repro.core.benchmark.Benchmark` subclass mapping the
  paper's workload definition (reference nodes, memory variants,
  problem sizes) onto the SPMD program.

:class:`AppBenchmark` supplies the recurring pieces of the third layer.
"""

from __future__ import annotations

from typing import Any

from ..core.benchmark import Benchmark, BenchmarkResult
from ..core.registry import get_info
from ..core.variants import MemoryVariant, VariantSizing
from ..units import register_dims
from ..vmpi.engine import VmpiEngine
from ..vmpi.machine import Machine
from ..vmpi.trace import SpmdResult

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: every benchmark funnels its FOM through ``result(fom_seconds=...)``,
#: so this one key polices the suite-wide time-metric promise
DIMS = register_dims(__name__, {
    "result.fom_seconds": "s",
})


def pow2_floor(n: int) -> int:
    """Largest power of two <= n (the paper's footnote rule for codes
    with power-of-two node-count constraints)."""
    if n < 1:
        raise ValueError("need a positive count")
    return 1 << (n.bit_length() - 1)


class AppBenchmark(Benchmark):
    """Base class wiring an SPMD program into the benchmark contract."""

    #: Table II name; resolved against the registry at construction.
    NAME: str = ""
    #: default memory variant when none is requested
    DEFAULT_VARIANT = MemoryVariant.LARGE

    def __init__(self) -> None:
        if not self.NAME:
            raise TypeError(f"{type(self).__name__} must set NAME")
        self.info = get_info(self.NAME)
        self.sizing = VariantSizing()

    # -- helpers -----------------------------------------------------------

    def variant_or_default(self, variant: MemoryVariant | None) -> MemoryVariant:
        """Requested variant, or the benchmark's default."""
        if variant is not None:
            return variant
        if self.info.variants:
            return (self.DEFAULT_VARIANT if self.DEFAULT_VARIANT in
                    self.info.variants else self.info.variants[-1])
        return self.DEFAULT_VARIANT

    def device_bytes(self, variant: MemoryVariant | None) -> float:
        """Workload bytes per device for a variant (T/S/M/L sizing)."""
        return self.sizing.bytes_per_device(self.variant_or_default(variant))

    def run_program(self, machine: Machine, program: Any, *,
                    args: tuple = (),
                    kwargs: dict | None = None) -> SpmdResult:
        """Execute an SPMD generator program on a machine."""
        return VmpiEngine(machine).run(program, args=args, kwargs=kwargs)

    def result(self, nodes: int, spmd: SpmdResult, *,
               variant: MemoryVariant | None = None,
               verified: bool | None = None,
               verification: str = "",
               fom_seconds: float | None = None,
               **details: Any) -> BenchmarkResult:
        """Package an SPMD run into a :class:`BenchmarkResult`."""
        return BenchmarkResult(
            benchmark=self.info.name,
            nodes=nodes,
            fom_seconds=spmd.elapsed if fom_seconds is None else fom_seconds,
            variant=variant,
            verified=None if verified is None else bool(verified),
            verification=verification,
            spmd=spmd,
            details=details,
        )
