"""Lattice QCD substrate shared by the Chroma-QCD and DynQCD benchmarks:
SU(3) algebra, gauge actions, the Wilson-clover Dirac operator, CG,
HMC, and the distributed (virtual-MPI) implementations."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cg": ("CgResult", "conjugate_gradient"),
    "chroma": (
        "ChromaBenchmark", "chroma_timing_program", "local_lattice_dims"
    ),
    "dirac": (
        "GAMMA", "GAMMA5", "WilsonDirac", "clover_field_strength",
        "lattice_bytes_per_site", "random_spinor", "sigma_munu", "spinor_dot",
        "spinor_norm"
    ),
    "distributed": (
        "SlabDirac", "dist_apply_dirac", "dist_cg", "dist_dot",
        "dist_normal_apply", "distribute_gauge", "exchange_t_ghosts", "slab_of"
    ),
    "dynqcd": ("DynqcdBenchmark", "dynqcd_timing_program"),
    "gauge": (
        "GaugeAction", "GaugeField", "average_plaquette", "average_rectangle",
        "field_at", "path_product", "plaquette_field", "rectangle_field",
        "staple_sum"
    ),
    "hmc": (
        "HmcResult", "Trajectory", "hmc_trajectory", "kinetic_energy",
        "leapfrog", "run_hmc"
    ),
    "su3": (
        "dagger", "expm_su3", "identity_links", "is_su3", "project_su3",
        "random_algebra", "random_su3", "trace", "traceless_antihermitian"
    ),
})
