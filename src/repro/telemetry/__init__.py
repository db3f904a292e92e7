"""Observability for the suite: spans, metrics and trace export.

The paper's methodology is built on *seeing into* runs -- Fig. 3
separates JUQCS computation from communication, Sec. IV-A2a quotes
Arbor cost-centre percentages, and the JUBE workflow exists so every
run is inspectable.  This package is that capability for the
reproduction, threaded through every layer:

* :mod:`repro.telemetry.spans` -- hierarchical, thread-safe spans with
  context-manager/decorator APIs and injectable clocks; the execution
  engine, JUBE runtime, suite drivers and continuous-benchmarking loop
  all emit them, and process-pool workers ship span batches back with
  their outcomes;
* :mod:`repro.telemetry.metrics` -- counters, gauges and fixed-bucket
  histograms with label sets and snapshot/delta views;
* :mod:`repro.telemetry.export` -- a crash-safe JSONL event sink and a
  Chrome ``trace_event`` exporter that renders virtual-MPI ranks as
  per-rank compute/comm timelines (Perfetto-ready);
* :mod:`repro.telemetry.schema` -- the JSONL event schema shared with
  ``RunJournal.to_jsonl`` (validated by CI);
* :mod:`repro.telemetry.report` -- offline re-rendering of a saved
  trace (``jubench report``);
* :mod:`repro.telemetry.selfcheck` -- a fast end-to-end check
  (``python -m repro.telemetry.selfcheck``).

Everything is zero-dependency and no-op-cheap when disabled: the
ambient tracer defaults to :data:`~repro.telemetry.spans.NULL_TRACER`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "export": (
        "JsonlSink", "chrome_trace_events", "emit_vmpi", "write_chrome_trace"
    ),
    "metrics": (
        "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "MetricsRegistry",
        "default_registry", "render_snapshot", "set_default_registry"
    ),
    "schema": (
        "SchemaError", "meta_event", "read_events", "validate_event",
        "validate_file"
    ),
    "spans": (
        "ManualClock", "NULL_TRACER", "SpanRecord", "Tracer", "current_tracer",
        "install_tracer", "span_rollup", "traced", "use_tracer"
    ),
})
