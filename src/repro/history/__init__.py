"""Performance-history plane: provenance-complete run database plus
statistical regression detection (the exaCB direction of ROADMAP item 2).

The suite exists to track application FOMs across machines and time;
until now every result evaporated when the process exited.  This
package keeps them:

* :mod:`repro.history.record` -- one :class:`RunRecord` per executed
  benchmark, keyed on *(code fingerprint x machine-config hash x
  parameter-set hash x engine-core stamp)* and stamped with the environment
  (git commit, schema version, seed), per-span timing rollups from
  :mod:`repro.telemetry` and a digest link to the exec journal;
* :mod:`repro.history.store` -- the append-only, content-addressed
  :class:`HistoryStore` (in-memory or JSONL-backed) whose canonical
  export is byte-identical across worker counts and replays;
* :mod:`repro.history.detect` -- a deterministic change-point /
  regression detector (stationary-window robust baseline + CUSUM)
  classifying each point as ok/regression/improvement with a full
  inference trace;
* :mod:`repro.history.report` -- FOM-trajectory rendering for
  ``jubench history`` / ``jubench regress`` / ``jubench report``.

``jubench ... --history DB.jsonl`` appends to a database from any
execution command; ``jubench history`` inspects and compacts it and
``jubench regress`` runs the detector over the accumulated series.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "detect": ("ChangePoint", "RegressionDetector", "Verdict"),
    "record": (
        "HISTORY_SCHEMA", "HISTORY_VERSION", "RunRecord", "build_record",
        "code_fingerprint", "machine_config_hash", "stamp"
    ),
    "report": ("render_regressions", "render_trajectory"),
    "store": ("HistoryStore",),
})
