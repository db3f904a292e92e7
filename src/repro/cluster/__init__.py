"""Simulated HPC machine substrate (stands in for JUWELS Booster / JUPITER).

Sub-modules:

* :mod:`~repro.cluster.hardware` -- device/node/system specifications,
* :mod:`~repro.cluster.topology` -- DragonFly+ (and fat-tree) path models,
* :mod:`~repro.cluster.network` -- alpha-beta-congestion communication costs,
* :mod:`~repro.cluster.storage` -- flash storage module + in-memory filesystem,
* :mod:`~repro.cluster.scheduler` -- Slurm-like deterministic batch scheduler,
* :mod:`~repro.cluster.energy` -- power/energy model for the TCO scheme.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "energy": ("EnergyModel",),
    "hardware": (
        "A100", "DeviceSpec", "EPYC_ROME_7402", "NodeSpec", "SystemSpec",
        "jupiter_booster_model", "juwels_booster", "juwels_booster_node",
        "juwels_cluster", "preparation_subpartition"
    ),
    "network": ("NetworkModel", "booster_network"),
    "scheduler": ("Job", "JobState", "Scheduler"),
    "storage": (
        "IOR_EASY_TRANSFER", "IOR_HARD_TRANSFER", "SimFile", "SimFilesystem",
        "StorageModel", "StorageSpec"
    ),
    "topology": ("DragonflyPlus", "FatTree", "LinkClass", "Topology"),
})
