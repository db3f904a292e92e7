"""The suite registry: all 23 benchmarks with Table I/II metadata.

This is the single source of truth behind the reproduced Table I
(benchmark <-> domain <-> Berkeley dwarfs) and Table II (languages,
programming models, licences, node counts, memory variants, execution
targets).  The runnable implementations live in :mod:`repro.apps` and
:mod:`repro.synthetic`; :data:`IMPLEMENTATIONS` attaches them to these
records by name without importing them.
"""

from __future__ import annotations

import importlib

from .benchmark import Benchmark, BenchmarkInfo, Category, Dwarf, Target
from .variants import MemoryVariant

_T, _S, _M, _L = (MemoryVariant.TINY, MemoryVariant.SMALL,
                  MemoryVariant.MEDIUM, MemoryVariant.LARGE)

_BASE = (Category.BASE,)
_BASE_HS = (Category.BASE, Category.HIGH_SCALING)
_SYN = (Category.SYNTHETIC,)

#: All 23 benchmarks in Table II's row order.
BENCHMARKS: tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo(
        name="Amber", domain="MD",
        dwarfs=(Dwarf.PARTICLE, Dwarf.SPECTRAL),
        languages=("Fortran",), prog_models=("CUDA",),
        license="Custom", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(1,), used_in_procurement=False),
    BenchmarkInfo(
        name="Arbor", domain="Neuroscience",
        dwarfs=(Dwarf.SPARSE_LA,),
        languages=("C++",), prog_models=("CUDA", "HIP"),
        license="BSD-3-Clause", categories=_BASE_HS,
        targets=(Target.BOOSTER,),
        base_nodes=(8,), highscale_nodes=642, variants=(_T, _S, _M, _L)),
    BenchmarkInfo(
        name="Chroma-QCD", domain="QCD",
        dwarfs=(Dwarf.SPARSE_LA,),
        languages=("C++",), prog_models=("CUDA", "HIP"),
        libraries=("QUDA", "QDP-JIT", "QMP"),
        license="JLab", categories=_BASE_HS, targets=(Target.BOOSTER,),
        base_nodes=(8,), highscale_nodes=512, variants=(_S, _M, _L)),
    BenchmarkInfo(
        name="GROMACS", domain="MD",
        dwarfs=(Dwarf.PARTICLE, Dwarf.SPECTRAL),
        languages=("C++",), prog_models=("CUDA", "SYCL"),
        license="LGPLv2.1", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(3, 128)),
    BenchmarkInfo(
        name="ICON", domain="Climate",
        dwarfs=(Dwarf.STRUCTURED_GRID,),
        languages=("Fortran", "C"), prog_models=("OpenACC", "CUDA", "HIP"),
        license="BSD-3-Clause", categories=_BASE,
        targets=(Target.BOOSTER, Target.STORAGE),
        base_nodes=(120, 300)),
    BenchmarkInfo(
        name="JUQCS", domain="Quantum Computing",
        dwarfs=(Dwarf.DENSE_LA,),
        languages=("Fortran",), prog_models=("CUDA", "OpenMP", "MPI"),
        license="None", categories=_BASE_HS,
        targets=(Target.BOOSTER, Target.MSA),
        base_nodes=(8,), highscale_nodes=512, variants=(_S, _L)),
    BenchmarkInfo(
        name="nekRS", domain="CFD",
        dwarfs=(Dwarf.DENSE_LA, Dwarf.UNSTRUCTURED_GRID),
        languages=("C++", "C"), prog_models=("CUDA", "HIP", "SYCL"),
        libraries=("OCCA",),
        license="BSD-3-Clause", categories=_BASE_HS,
        targets=(Target.BOOSTER,),
        base_nodes=(8,), highscale_nodes=642, variants=(_S, _M, _L)),
    BenchmarkInfo(
        name="ParFlow", domain="Earth Systems",
        dwarfs=(Dwarf.STRUCTURED_GRID,),
        languages=("C",), prog_models=("CUDA", "HIP"),
        libraries=("Hypre",),
        license="LGPL", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(4,), used_in_procurement=False),
    BenchmarkInfo(
        name="PIConGPU", domain="Plasma Physics",
        dwarfs=(Dwarf.PARTICLE, Dwarf.STRUCTURED_GRID),
        languages=("C++",), prog_models=("CUDA", "HIP"),
        libraries=("Alpaka",),
        license="GPLv3+", categories=_BASE_HS, targets=(Target.BOOSTER,),
        base_nodes=(4,), highscale_nodes=640, variants=(_S, _M, _L)),
    BenchmarkInfo(
        name="Quantum Espresso", domain="Materials Science",
        dwarfs=(Dwarf.SPECTRAL, Dwarf.DENSE_LA),
        languages=("Fortran",), prog_models=("OpenACC", "CUF"),
        libraries=("ELPA",),
        license="GPL", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(8,)),
    BenchmarkInfo(
        name="SOMA", domain="Polymer Systems",
        dwarfs=(Dwarf.MONTE_CARLO,),
        languages=("C",), prog_models=("OpenACC",),
        license="LGPL", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(8,), used_in_procurement=False),
    BenchmarkInfo(
        name="MMoCLIP", domain="AI (Multi-Modal)",
        dwarfs=(Dwarf.DENSE_LA,),
        languages=("Python",), prog_models=("CUDA", "ROCm"),
        libraries=("PyTorch",),
        license="MIT", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(8,)),
    BenchmarkInfo(
        name="Megatron-LM", domain="AI (LLM)",
        dwarfs=(Dwarf.DENSE_LA,),
        languages=("Python",), prog_models=("CUDA", "ROCm"),
        libraries=("PyTorch", "Apex"),
        license="BSD-3-Clause", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(96,)),
    BenchmarkInfo(
        name="ResNet", domain="AI (Vision)",
        dwarfs=(Dwarf.DENSE_LA,),
        languages=("Python",), prog_models=("CUDA", "ROCm"),
        libraries=("TensorFlow", "Horovod"),
        license="Apache-2.0", categories=_BASE, targets=(Target.BOOSTER,),
        base_nodes=(10,), used_in_procurement=False),
    BenchmarkInfo(
        name="DynQCD", domain="QCD",
        dwarfs=(Dwarf.SPARSE_LA, Dwarf.STRUCTURED_GRID),
        languages=("C",), prog_models=("OpenMP",),
        license="None (closed source)", categories=_BASE,
        targets=(Target.CLUSTER,),
        base_nodes=(8,)),
    BenchmarkInfo(
        name="NAStJA", domain="Biology",
        dwarfs=(Dwarf.STRUCTURED_GRID, Dwarf.MONTE_CARLO),
        languages=("C++",), prog_models=("MPI",),
        license="MPL-2.0", categories=_BASE, targets=(Target.CLUSTER,),
        base_nodes=(8,)),
    BenchmarkInfo(
        name="Graph500", domain="Graph Analytics",
        dwarfs=(Dwarf.GRAPH_TRAVERSAL,),
        languages=("C",), prog_models=("MPI",),
        license="MIT", categories=_SYN, targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(4, 16)),
    BenchmarkInfo(
        name="HPCG", domain="Conjugate Gradients",
        dwarfs=(Dwarf.SPARSE_LA,),
        languages=("C++",), prog_models=("OpenMP", "CUDA", "HIP"),
        license="BSD-3-Clause", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(1, 4)),
    BenchmarkInfo(
        name="HPL", domain="Linear Algebra",
        dwarfs=(Dwarf.DENSE_LA,),
        languages=("C",), prog_models=("OpenMP", "CUDA", "HIP"),
        libraries=("BLAS",),
        license="BSD-4-Clause", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(1, 16)),
    BenchmarkInfo(
        name="IOR", domain="Filesystem",
        dwarfs=(Dwarf.IO,),
        languages=("C",), prog_models=("MPI",),
        license="GPLv2", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER, Target.STORAGE),
        base_nodes=(64,)),
    BenchmarkInfo(
        name="LinkTest", domain="Network",
        dwarfs=(Dwarf.NETWORK,),
        languages=("C++",), prog_models=("MPI",),
        libraries=("SIONlib",),
        license="BSD-4-Clause+", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(936,)),
    BenchmarkInfo(
        name="OSU", domain="Network",
        dwarfs=(Dwarf.NETWORK,),
        languages=("C",), prog_models=("MPI", "CUDA"),
        license="BSD", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(1, 2)),
    BenchmarkInfo(
        name="STREAM", domain="Memory",
        dwarfs=(Dwarf.MEMORY,),
        languages=("C",), prog_models=("CUDA", "ROCm", "OpenACC"),
        license="Custom", categories=_SYN,
        targets=(Target.BOOSTER, Target.CLUSTER),
        base_nodes=(1,)),
)

_BY_NAME = {b.name: b for b in BENCHMARKS}

#: The runnable implementation of every benchmark as ``"module:Class"``,
#: in Table II order -- the one list ``load_suite``, ``jubench list``
#: and CLI name validation read.  A module is imported when its
#: benchmark is first used (:func:`load_implementation`), never to
#: enumerate or validate names.
IMPLEMENTATIONS: dict[str, str] = {
    "Amber": "repro.apps.md.amber:AmberBenchmark",
    "Arbor": "repro.apps.arbor.benchmark:ArborBenchmark",
    "Chroma-QCD": "repro.apps.lattice.chroma:ChromaBenchmark",
    "GROMACS": "repro.apps.md.gromacs:GromacsBenchmark",
    "ICON": "repro.apps.icon.benchmark:IconBenchmark",
    "JUQCS": "repro.apps.juqcs.benchmark:JuqcsBenchmark",
    "nekRS": "repro.apps.nekrs.benchmark:NekrsBenchmark",
    "ParFlow": "repro.apps.parflow.benchmark:ParflowBenchmark",
    "PIConGPU": "repro.apps.picongpu.benchmark:PicongpuBenchmark",
    "Quantum Espresso": "repro.apps.qe.benchmark:QuantumEspressoBenchmark",
    "SOMA": "repro.apps.soma.benchmark:SomaBenchmark",
    "MMoCLIP": "repro.apps.ai.benchmarks:MmoclipBenchmark",
    "Megatron-LM": "repro.apps.ai.benchmarks:MegatronBenchmark",
    "ResNet": "repro.apps.ai.benchmarks:ResnetBenchmark",
    "DynQCD": "repro.apps.lattice.dynqcd:DynqcdBenchmark",
    "NAStJA": "repro.apps.nastja.benchmark:NastjaBenchmark",
    "Graph500": "repro.synthetic.graph500:Graph500Benchmark",
    "HPCG": "repro.synthetic.hpcg:HpcgBenchmark",
    "HPL": "repro.synthetic.hpl:HplBenchmark",
    "IOR": "repro.synthetic.ior:IorBenchmark",
    "LinkTest": "repro.synthetic.linktest:LinktestBenchmark",
    "OSU": "repro.synthetic.osu:OsuBenchmark",
    "STREAM": "repro.synthetic.stream:StreamBenchmark",
}


def load_implementation(name: str) -> Benchmark:
    """Import one benchmark's module and instantiate its class.

    Module-level, so ``functools.partial(load_implementation, name)``
    pickles to ``--backend process`` workers, which import lazily too.
    """
    module, _, cls = IMPLEMENTATIONS[name].partition(":")
    return getattr(importlib.import_module(module), cls)()


def get_info(name: str) -> BenchmarkInfo:
    """Metadata record for a benchmark by its Table II name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")


def by_category(category: Category) -> tuple[BenchmarkInfo, ...]:
    """All benchmarks in a category, in Table II order."""
    return tuple(b for b in BENCHMARKS if category in b.categories)


def application_benchmarks() -> tuple[BenchmarkInfo, ...]:
    """The 16 application benchmarks (Base and/or High-Scaling)."""
    return tuple(b for b in BENCHMARKS if Category.SYNTHETIC not in b.categories)


def synthetic_benchmarks() -> tuple[BenchmarkInfo, ...]:
    """The 7 synthetic benchmarks."""
    return by_category(Category.SYNTHETIC)


def high_scaling_benchmarks() -> tuple[BenchmarkInfo, ...]:
    """The 5 High-Scaling benchmarks."""
    return by_category(Category.HIGH_SCALING)


def procurement_benchmarks() -> tuple[BenchmarkInfo, ...]:
    """The 12 application benchmarks actually used in the procurement."""
    return tuple(b for b in application_benchmarks() if b.used_in_procurement)
