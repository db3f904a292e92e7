"""Parallel + incremental suite execution.

The paper drives every benchmark through a replicable JUBE workflow and
plans a continuous-benchmarking loop (Sec. VI); at scale both only stay
tractable with parallel fan-out and cache-aware incremental
re-execution.  This package is the reproduction's replicability layer
(with the journal and ``--history``; DESIGN.md, "JUBE and continuous
benchmarking"):

* :mod:`repro.exec.engine` -- concurrent batch execution with a fault
  boundary (retries, timeouts, error-carrying outcomes) and
  deterministic result ordering,
* :mod:`repro.exec.cache` -- content-addressed result caching keyed on
  (benchmark, parameters, platform, code version), memory and disk
  backends with hit/miss/store statistics,
* :mod:`repro.exec.journal` -- the structured per-task run journal,
* :mod:`repro.exec.jsonl` -- the torn-tail rule every append-only JSONL
  store reads by (history DB, service results, telemetry traces).

:class:`~repro.core.suite.JupiterBenchmarkSuite` and the service
endpoints accept an :class:`~repro.exec.engine.ExecutionEngine` to fan
their independent units of work out through it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": (
        "CODE_VERSION", "CacheStats", "DiskCache", "MemoryCache",
        "ResultCache", "result_key", "stable_hash"
    ),
    "engine": (
        "BACKENDS", "EngineError", "ExecutionEngine", "TaskOutcome",
        "TaskTimeout", "WorkItem"
    ),
    "journal": ("JournalStats", "RunJournal", "TaskRecord"),
    "resilience": ("BackoffPolicy", "CircuitBreaker"),
})
