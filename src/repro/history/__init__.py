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

# Eager, unlike the other package facades: ``record`` the function
# shares its name with the submodule it lives in, and the import system
# would bind the submodule over a lazily resolved attribute.  None of
# its four submodules imports anything heavy, so nothing is lost.
from .detect import ChangePoint, RegressionDetector, Verdict
from .record import (
    HISTORY_SCHEMA,
    HISTORY_VERSION,
    RunRecord,
    code_fingerprint,
    machine_config_hash,
    record,
    stamp,
)
from .report import render_regressions, render_trajectory
from .store import HistoryStore

__all__ = [
    "HISTORY_SCHEMA",
    "HISTORY_VERSION",
    "ChangePoint",
    "HistoryStore",
    "RegressionDetector",
    "RunRecord",
    "Verdict",
    "code_fingerprint",
    "machine_config_hash",
    "record",
    "render_regressions",
    "render_trajectory",
    "stamp",
]
