"""Virtual MPI: deterministic in-process SPMD execution with virtual time.

The substrate that lets the suite's distributed applications run on a
laptop: rank programs are generators, payloads are really moved (small
scale, for verification) or size-only phantoms (large scale, for
timing), and every operation advances a virtual clock from the machine
model in :mod:`repro.cluster`.
"""

from .comm import Comm
from .decomposition import (
    CartGrid,
    block_partition,
    dims_create,
    ghost_faces,
    halo_exchange,
    phantom_faces,
)
from .engine import (
    CollectiveMismatchError,
    DeadlockError,
    RankFailedError,
    VmpiEngine,
    VmpiError,
    run_spmd,
)
from .heap import EventHeap
from .machine import Machine
from .ops import (
    Collective,
    Compute,
    Elapse,
    Exchange,
    Irecv,
    Isend,
    Op,
    Phantom,
    Recv,
    Request,
    Send,
    Sendrecv,
    Wait,
    Waitall,
    nbytes_of,
)
from .trace import RankTrace, SpmdResult

__all__ = [
    "CartGrid",
    "Collective",
    "CollectiveMismatchError",
    "Comm",
    "Compute",
    "DeadlockError",
    "Elapse",
    "EventHeap",
    "Exchange",
    "Irecv",
    "Isend",
    "Machine",
    "Op",
    "Phantom",
    "RankFailedError",
    "RankTrace",
    "Recv",
    "Request",
    "Send",
    "Sendrecv",
    "SpmdResult",
    "VmpiEngine",
    "VmpiError",
    "Wait",
    "Waitall",
    "block_partition",
    "dims_create",
    "ghost_faces",
    "halo_exchange",
    "nbytes_of",
    "phantom_faces",
    "run_spmd",
]
