"""Shared fixtures for the figure/table regeneration benches.

Every bench prints the regenerated artefact (run pytest with ``-s`` to
see it) and times the regeneration via pytest-benchmark.  Node sweeps
are the paper's where tractable; EXPERIMENTS.md records the mapping.
"""

import json
import os
import pathlib

import pytest

from repro.core import load_suite
from repro.history import HistoryStore, RegressionDetector, record, stamp

#: history database the benches append to (override the location with
#: JUBENCH_HISTORY; set it to an empty string to disable appending)
HISTORY_ENV = "JUBENCH_HISTORY"


@pytest.fixture(scope="session")
def suite():
    """The fully registered suite, shared across benches."""
    return load_suite()


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive regeneration exactly once under the timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def _bench_history(root: pathlib.Path) -> HistoryStore | None:
    path = os.environ.get(HISTORY_ENV, str(root / "BENCH_history.jsonl"))
    return HistoryStore.open(path) if path else None


def _append_runs(store: HistoryStore, name: str, payload: dict) -> None:
    """One run record per wall-clock entry of the payload, all in the
    bench's one series.

    Bench wall clocks are volatile provenance (kept in the DB, outside
    the canonical form); the record's identity comes from the bench
    name and its shape.
    """
    shape = payload.get("shape", {})
    for entry in payload.get("records", []):
        store.append(record(f"bench:{name}", params={"shape": shape},
                            volatile=dict(entry)))


def _trajectory(store: HistoryStore, name: str) -> dict:
    """Last-10-runs trajectory of this bench's series, with verdicts --
    the per-PR view embedded into every BENCH_*.json record."""
    detector = RegressionDetector()
    out: dict[str, list[dict]] = {}
    for key, records in store.select(f"bench:{name}").items():
        values = [r.value for r in records if r.value is not None]
        verdicts = detector.classify(values)
        points = []
        for rec, verdict in list(zip(
                [r for r in records if r.value is not None],
                verdicts))[-10:]:
            points.append({"seq": rec.seq, "code": rec.code[:12],
                           "value": verdict.value,
                           "status": verdict.status})
        out[key] = points
    return out


def write_bench_record(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable perf record as BENCH_<name>.json.

    Written at the repo root so CI can pick the records up as
    artifacts; the payload schema is whatever the emitting bench
    documents, plus the keys every record carries: ``benchmark``,
    ``max_ranks``, wall-clock ``records`` entries, the shared
    ``provenance`` stamp (git commit, history schema version,
    machine-config hash) and the ``trajectory`` section from the
    history database (last runs per series, regression flags).
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / f"BENCH_{name}.json"
    stamped = stamp(payload)
    store = _bench_history(root)
    if store is not None:
        _append_runs(store, name, payload)
        stamped["trajectory"] = _trajectory(store, name)
    out.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return out
