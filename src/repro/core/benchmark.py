"""Benchmark abstractions: categories, metadata, results, runtime base.

This is the vocabulary of the suite (Table I/II): every benchmark has a
category (Base / High-Scaling / synthetic), execution targets
(Booster / Cluster / MSA / storage), Berkeley-dwarf classification,
language/licence metadata, reference node counts, and -- for runnable
benchmarks -- a :meth:`Benchmark.run` implementation producing a
:class:`BenchmarkResult` with the normalised time-metric FOM.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..cluster.hardware import SystemSpec, juwels_booster, juwels_cluster
from ..units import register_dims
from ..vmpi.machine import Machine
from .fom import FigureOfMerit
from .variants import MemoryVariant

if TYPE_CHECKING:  # pragma: no cover
    from ..vmpi.trace import SpmdResult  # numpy; only named in annotations

#: dimension annotations consumed by ``repro.check``'s UNIT3xx rules;
#: the normalised FOM is the one field every benchmark must express in
#: seconds -- UNIT304 checks each construction site against this
DIMS = register_dims(__name__, {
    "BenchmarkResult.fom_seconds": "s",
})


class Category(enum.Enum):
    """Benchmark categories (Sec. II-B)."""

    BASE = "base"
    HIGH_SCALING = "high-scaling"
    SYNTHETIC = "synthetic"


class Dwarf(enum.Enum):
    """Berkeley dwarfs / computational motifs used by Table I."""

    DENSE_LA = "Dense Linear Algebra"
    SPARSE_LA = "Sparse Linear Algebra"
    SPECTRAL = "Spectral Methods"
    PARTICLE = "N-Body / Particle Methods"
    STRUCTURED_GRID = "Structured Grids"
    UNSTRUCTURED_GRID = "Unstructured Grids"
    MONTE_CARLO = "Monte Carlo / MapReduce"
    GRAPH_TRAVERSAL = "Graph Traversal"
    IO = "Input/Output"
    NETWORK = "Network"
    MEMORY = "Regular Memory Access"


class Target(enum.Enum):
    """Execution targets (last columns of Table II)."""

    BOOSTER = "booster"      # GPU module
    CLUSTER = "cluster"      # CPU module
    MSA = "msa"              # spans both modules
    STORAGE = "storage"      # the flash storage module


@dataclass(frozen=True)
class BenchmarkInfo:
    """Static metadata of one suite benchmark (Tables I and II)."""

    name: str
    domain: str
    dwarfs: tuple[Dwarf, ...]
    languages: tuple[str, ...]
    prog_models: tuple[str, ...]
    license: str
    categories: tuple[Category, ...]
    targets: tuple[Target, ...]
    #: reference node counts for Base execution (several for
    #: sub-benchmarks, e.g. ICON 120/300)
    base_nodes: tuple[int, ...] = ()
    #: preparation-system node count for High-Scaling (0 if not HS)
    highscale_nodes: int = 0
    #: available memory variants for High-Scaling
    variants: tuple[MemoryVariant, ...] = ()
    #: prepared for the procurement but ultimately not used (the
    #: asterisked rows: Amber, ParFlow, SOMA, ResNet)
    used_in_procurement: bool = True
    libraries: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if Category.HIGH_SCALING in self.categories and not self.variants:
            raise ValueError(
                f"{self.name}: High-Scaling benchmarks need memory variants")
        if Category.BASE in self.categories and not self.base_nodes:
            raise ValueError(f"{self.name}: Base benchmarks need base_nodes")

    @property
    def reference_nodes(self) -> int:
        """Default reference node count (first of ``base_nodes``)."""
        if not self.base_nodes:
            raise ValueError(f"{self.name} has no Base node counts")
        return self.base_nodes[0]

    @property
    def is_cpu_only(self) -> bool:
        """Runs only on the CPU module (NAStJA, DynQCD)."""
        return Target.BOOSTER not in self.targets and \
            Target.CLUSTER in self.targets


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark execution on the simulated machine."""

    benchmark: str
    nodes: int
    fom_seconds: float
    variant: MemoryVariant | None = None
    verified: bool | None = None
    verification: str = ""
    spmd: SpmdResult | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Scheduler-compatible duration alias."""
        return self.fom_seconds

    def __post_init__(self) -> None:
        if self.fom_seconds <= 0:
            raise ValueError(
                f"{self.benchmark}: FOM time metric must be positive")
        if self.nodes < 1:
            raise ValueError(f"{self.benchmark}: nodes must be positive")


class Benchmark(abc.ABC):
    """Runtime base class all application/synthetic benchmarks implement.

    Concrete classes define :attr:`info`, :attr:`fom` and
    :meth:`_execute`; this base provides machine construction and result
    packaging.  ``scale`` shrinks the workload proportionally so that
    *real* (data-carrying) runs stay tractable; ``real=False`` runs the
    same communication/compute structure with phantom payloads.
    """

    info: BenchmarkInfo
    fom: FigureOfMerit

    def system(self) -> SystemSpec:
        """The system this benchmark targets by default."""
        if self.info.is_cpu_only:
            return juwels_cluster()
        return juwels_booster()

    def machine(self, nodes: int, ranks_per_node: int | None = None) -> Machine:
        """Place a job of ``nodes`` nodes on the target system."""
        sysm = self.system()
        rpn = sysm.node.devices_per_node if ranks_per_node is None \
            else ranks_per_node
        return Machine.on(sysm, nranks=nodes * rpn, ranks_per_node=rpn)

    @abc.abstractmethod
    def _execute(self, nodes: int, *, variant: MemoryVariant | None,
                 scale: float, real: bool) -> BenchmarkResult:
        """Produce the benchmark result (implemented per application)."""

    def run(self, nodes: int | None = None, *,
            variant: MemoryVariant | None = None,
            scale: float = 1.0, real: bool = False) -> BenchmarkResult:
        """Run the benchmark.

        ``nodes`` defaults to the reference node count.  ``variant``
        selects a High-Scaling memory variant where applicable.
        """
        if nodes is None:
            nodes = self.info.reference_nodes
        if nodes < 1:
            raise ValueError("nodes must be positive")
        if variant is not None and self.info.variants and \
                variant not in self.info.variants:
            raise ValueError(
                f"{self.info.name} offers variants "
                f"{[v.value for v in self.info.variants]}, not {variant.value}")
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        return self._execute(nodes, variant=variant, scale=scale, real=real)
