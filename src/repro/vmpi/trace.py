"""Per-rank timing traces produced by the virtual-MPI engine.

The paper's analyses need exactly this decomposition: Fig. 3 plots the
JUQCS *computation* and *communication* lines separately, and the Arbor
discussion (Sec. IV-A2a) quotes cost-centre percentages (52 % ion
channels, 33 % cable equation) with communication fully hidden.  The
trace therefore buckets virtual time by op label.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .ops import Phantom


def _canon(value: Any) -> Any:
    """A JSON-serializable, scheduling-independent form of a payload.

    NumPy arrays and scalars become lists/numbers, phantoms become
    tagged size records, and communicators are reduced to their
    structural identity ``(rank, members)`` -- raw ``comm_id`` values
    depend on allocation order, which scheduling is free to change,
    so they must not leak into comparisons.
    """
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Phantom):
        return {"__phantom__": value.nbytes}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value)}
    if hasattr(value, "members") and hasattr(value, "comm_id"):
        return {"__comm__": {"rank": value.rank,
                             "members": list(value.members)}}
    return value


@dataclass
class RankTrace:
    """Accumulated virtual time of one rank, bucketed by label."""

    compute: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    comm: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    bytes_sent: float = 0.0
    ops: int = 0

    @property
    def compute_seconds(self) -> float:
        """Total local-work time."""
        return sum(self.compute.values())

    @property
    def comm_seconds(self) -> float:
        """Total time blocked in communication (overlap excluded)."""
        return sum(self.comm.values())


@dataclass
class SpmdResult:
    """Result of one SPMD run: return values, final clocks, traces."""

    values: list[Any]
    clocks: list[float]
    traces: list[RankTrace]

    @property
    def nranks(self) -> int:
        return len(self.values)

    @property
    def elapsed(self) -> float:
        """Virtual makespan of the run (slowest rank)."""
        return max(self.clocks) if self.clocks else 0.0

    # ``seconds`` lets SpmdResult be returned straight from a scheduler job
    # payload (the scheduler reads job durations from this attribute).
    @property
    def seconds(self) -> float:
        """Alias for :attr:`elapsed`."""
        return self.elapsed

    @property
    def compute_seconds(self) -> float:
        """Max per-rank compute time (critical-path style aggregate)."""
        return max((t.compute_seconds for t in self.traces), default=0.0)

    @property
    def comm_seconds(self) -> float:
        """Max per-rank communication (blocked) time."""
        return max((t.comm_seconds for t in self.traces), default=0.0)

    @property
    def comm_fraction(self) -> float:
        """Fraction of the makespan the slowest-comm rank spent blocked."""
        return self.comm_seconds / self.elapsed if self.elapsed > 0 else 0.0

    def compute_profile(self) -> dict[str, float]:
        """Aggregate compute time by label across ranks (for cost centres)."""
        return self._profile("compute")

    def comm_profile(self) -> dict[str, float]:
        """Aggregate communication time by label across ranks."""
        return self._profile("comm")

    def _profile(self, bucket: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for t in self.traces:
            for label, sec in getattr(t, bucket).items():
                out[label] += sec
        return dict(out)

    def canonical(self) -> dict[str, Any]:
        """A plain-data form of the result for structural comparison.

        The differential suites compare the engine against the test-side
        reference scheduler through this: floats pass through untouched
        (byte identity is the contract) and payloads are canonicalized
        by :func:`_canon`.
        """
        return {
            "values": [_canon(v) for v in self.values],
            "clocks": list(self.clocks),
            "traces": [
                {"compute": {k: t.compute[k] for k in sorted(t.compute)},
                 "comm": {k: t.comm[k] for k in sorted(t.comm)},
                 "bytes_sent": t.bytes_sent,
                 "ops": t.ops}
                for t in self.traces],
        }
