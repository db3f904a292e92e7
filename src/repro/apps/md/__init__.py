"""Molecular dynamics substrate shared by GROMACS and Amber:
neighbour lists, LJ + Ewald force field, velocity-Verlet engine."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "amber": ("AmberBenchmark", "STMV_ATOMS", "amber_timing_program"),
    "engine": ("MdEngine", "MdObservables", "MdSystem"),
    "forcefield": (
        "EwaldParams", "LjParams", "coulomb_energy", "ewald_real_space",
        "ewald_reciprocal", "lj_forces", "lj_pair_energy", "madelung_nacl"
    ),
    "gromacs": ("CASES", "GromacsBenchmark", "gromacs_timing_program"),
    "neighbor": (
        "NeighborList", "build_neighbor_list", "minimum_image",
        "wrap_positions"
    ),
})
