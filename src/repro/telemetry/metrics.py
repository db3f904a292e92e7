"""Counters, gauges and fixed-bucket histograms with label sets.

The quantitative half of :mod:`repro.telemetry`: the execution engine
counts tasks/retries/cache hits and observes task latencies, the suite
gauges per-benchmark FOMs, and the CLI ``--metrics`` flag renders the
registry as a plain-text report.  Prometheus-like data model, zero
dependencies:

* instruments are identified by ``(name, sorted label items)``;
  :meth:`MetricsRegistry.counter` & co. get-or-create atomically,
* every update takes the instrument's own lock (safe under the thread
  backend's concurrency),
* :meth:`MetricsRegistry.snapshot` returns a plain-dict view and
  :meth:`MetricsRegistry.delta` diffs two snapshots -- the API the
  incremental tests use.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

#: Default histogram bucket upper bounds (seconds); +inf is implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   50.0, 100.0)


def _series(name: str, labels: dict[str, Any]) -> str:
    """Canonical series key, e.g. ``tasks_total{cache=hit,status=ok}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing value."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value (set or adjusted)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets, ``le`` semantics).

    ``observe(v)`` lands in the first bucket with ``v <= bound``; values
    above the last bound land in the implicit +inf bucket.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        self.bounds = bounds
        self._lock = threading.Lock()
        self.counts = [0] * (len(bounds) + 1)   # last = +inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Thread-safe instrument registry with snapshot/delta views."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access (get-or-create) ----------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _series(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter()
            return self._counters[key]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _series(name, labels)
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge()
            return self._gauges[key]

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        key = _series(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(buckets)
            hist = self._histograms[key]
        if tuple(float(b) for b in buckets) != hist.bounds:
            raise ValueError(
                f"histogram {key!r} re-registered with different buckets")
        return hist

    # -- views ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict state of every instrument (JSON-safe)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {
                k: {"bounds": list(h.bounds), "counts": list(h.counts),
                    "sum": h.sum, "count": h.count}
                for k, h in sorted(histograms.items())},
        }

    @staticmethod
    def delta(before: dict[str, Any], after: dict[str, Any]
              ) -> dict[str, Any]:
        """Difference of two snapshots (counters/histograms subtract,
        gauges report the later value)."""
        out: dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {}}
        for key, value in after["counters"].items():
            out["counters"][key] = value - before["counters"].get(key, 0.0)
        out["gauges"] = dict(after["gauges"])
        for key, hist in after["histograms"].items():
            prev = before["histograms"].get(
                key, {"counts": [0] * len(hist["counts"]), "sum": 0.0,
                      "count": 0})
            out["histograms"][key] = {
                "bounds": list(hist["bounds"]),
                "counts": [a - b for a, b in zip(hist["counts"],
                                                 prev["counts"])],
                "sum": hist["sum"] - prev["sum"],
                "count": hist["count"] - prev["count"],
            }
        return out

    def render(self) -> str:
        """Plain-text metrics report (the ``--metrics`` output)."""
        return render_snapshot(self.snapshot())


def render_snapshot(snap: dict[str, Any]) -> str:
    """Render a snapshot (live or loaded from a trace) as text."""
    lines = ["metrics report"]
    for key, value in snap["counters"].items():
        lines.append(f"  counter   {key:<44} {value:g}")
    for key, value in snap["gauges"].items():
        lines.append(f"  gauge     {key:<44} {value:g}")
    for key, hist in snap["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        lines.append(f"  histogram {key:<44} count={hist['count']} "
                     f"mean={mean:.6g}s")
        for bound, count in zip(list(hist["bounds"]) + ["+inf"],
                                hist["counts"]):
            if count:
                label = bound if isinstance(bound, str) else f"{bound:g}"
                lines.append(f"              le={label:<8} {count}")
    if len(lines) == 1:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The shared process-wide registry (CLI and engine default)."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the shared registry (tests); returns the previous one."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous, _DEFAULT = _DEFAULT, registry
    return previous
