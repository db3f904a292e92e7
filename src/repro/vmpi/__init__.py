"""Virtual MPI: deterministic in-process SPMD execution with virtual time.

The substrate that lets the suite's distributed applications run on a
laptop: rank programs are generators, payloads are really moved (small
scale, for verification) or size-only phantoms (large scale, for
timing), and every operation advances a virtual clock from the machine
model in :mod:`repro.cluster`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "comm": ("Comm",),
    "decomposition": (
        "CartGrid", "block_partition", "dims_create", "ghost_faces",
        "halo_exchange", "phantom_faces"
    ),
    "engine": (
        "CollectiveMismatchError", "DeadlockError", "RankFailedError",
        "VmpiEngine", "VmpiError", "run_spmd"
    ),
    "heap": ("EventHeap",),
    "machine": ("Machine",),
    "ops": (
        "Collective", "Compute", "Elapse", "Exchange", "Irecv", "Isend", "Op",
        "Phantom", "Recv", "Request", "Send", "Sendrecv", "Wait", "Waitall",
        "nbytes_of"
    ),
    "trace": ("RankTrace", "SpmdResult"),
})
