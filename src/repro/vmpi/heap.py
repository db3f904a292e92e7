"""A deterministic time-ordered event queue (binary heap).

The one scheduling structure behind both discrete-event simulators in
the suite: the vmpi engine (:mod:`repro.vmpi.engine`) resumes
ranks from it in virtual-time order, and the batch scheduler
(:mod:`repro.cluster.scheduler`) pops job completions from it.

Entries pop in increasing ``(time, tiebreak)`` order.  When no explicit
tiebreak is given, a monotone sequence number is assigned, so equal
times pop in insertion order (FIFO within a timestamp) -- the property
that makes heap-driven runs exactly reproducible.  Callers that need a
semantic tiebreak (the scheduler orders equal completions by job id)
pass their own.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator


class EventHeap:
    """Min-heap of ``(time, tiebreak, item)`` events.

    The payload ``item`` is never compared: unique tiebreaks (the
    auto-sequence, or caller-supplied unique keys) fully order entries.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, Any, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[tuple[float, Any, Any]]:
        """Unordered iteration over the raw entries (inspection only)."""
        return iter(self._heap)

    def push(self, time: float, item: Any, tiebreak: Any = None) -> None:
        """Add an event; with no ``tiebreak``, insertion order breaks ties."""
        if tiebreak is None:
            tiebreak = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (time, tiebreak, item))

    def pop(self) -> Any:
        """Remove and return the earliest event's item."""
        return heapq.heappop(self._heap)[2]

    def pop_entry(self) -> tuple[float, Any, Any]:
        """Remove and return the earliest ``(time, tiebreak, item)``."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Earliest event time (heap must be non-empty)."""
        return self._heap[0][0]

    def remove_if(self, pred: Callable[[Any], bool]) -> int:
        """Drop every event whose item matches; returns the count removed."""
        kept = [e for e in self._heap if not pred(e[2])]
        removed = len(self._heap) - len(kept)
        if removed:
            self._heap = kept
            heapq.heapify(self._heap)
        return removed
