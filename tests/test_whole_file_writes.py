"""Whole-file artifacts are replaced atomically.

A check baseline, a compacted history database, a disk-cache entry, a
Chrome trace, a fault plan, a run journal, a chaos trace and the six
files the CLI writes whole (``check --output``, ``history --export``,
``submit --direct --export``, ``submit --spool`` envelopes, ``serve
--dispatch-log`` and ``serve --export``) are each rewritten in full
through one helper,
:func:`repro.exec.jsonl.replace_file`.  A simulated kill after byte *k*
of the write must leave the previous file byte for byte and no temp
file behind, and the temp file must never look like an artifact to a
directory scan (``*.json``/``*.jsonl``).
"""

from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.check import Baseline, BaselineEntry
from repro.check.findings import save_baseline
from repro.cli import main
from repro.exec import DiskCache
from repro.exec.journal import RunJournal, TaskRecord
from repro.faults import FaultPlan, write_chaos_trace
from repro.history import HistoryStore
from repro.telemetry import write_chrome_trace
from tests.regen_goldens import build_telemetry_tracer, chaos_plan

KILL_AFTER = (0, 1, 17, 200, 10 ** 9)


class Killed(BaseException):
    """A simulated kill: not an ``Exception``, so nothing may catch it."""


def _baseline(tmp_path):
    path = tmp_path / "check-baseline.json"
    entry = BaselineEntry(rule="DET001", path="apps/a.py",
                          snippet="t = time.time()", justification="old")
    save_baseline(path, Baseline(entries=[entry]))
    new = Baseline(entries=[entry, BaselineEntry(
        rule="CON102", path="core/b.py", snippet="X()",
        justification="new")])
    return path, lambda: save_baseline(path, new)


def _history_compact(tmp_path):
    path = tmp_path / "db.jsonl"
    store = HistoryStore.open(path)
    for i in range(6):
        store.record_and_append("STREAM", 1.0 + 0.01 * i,
                                params={"nodes": 1 + i % 2})
    return path, lambda: HistoryStore.open(path).compact(1)


def _disk_cache_put(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("k", {"fom": 1.0})
    return tmp_path / "k.json", lambda: cache.put("k", {"fom": [2.0] * 99})


def _chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, build_telemetry_tracer())
    bigger = build_telemetry_tracer()
    with bigger.span("extra"):
        pass
    return path, lambda: write_chrome_trace(path, bigger)


def _fault_plan(tmp_path):
    path = tmp_path / "plan.json"
    FaultPlan(seed=1).save(path)
    return path, lambda: chaos_plan().save(path)


def _journal(n):
    journal = RunJournal()
    for i in range(n):
        journal.append(TaskRecord(index=i, label=f"run:B{i}", status="ok",
                                  cache="miss", finished=1.0 + i))
    return journal


def _run_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    _journal(1).to_jsonl(path)
    return path, lambda: _journal(5).to_jsonl(path)


def _chaos_trace(tmp_path):
    path = tmp_path / "chaos_trace.json"
    write_chaos_trace(path, _journal(1), FaultPlan(seed=1))
    return path, lambda: write_chaos_trace(path, _journal(3), chaos_plan())


def _cli(path, *argv):
    """``main(argv)`` as the writer of ``path``; the file already holds
    what an earlier run (or a stale copy) left."""
    return path, lambda: main([str(arg) for arg in argv])


def _check_output(tmp_path):
    path = tmp_path / "report.json"
    check = ["check", "--rules", "DET001", "--no-runtime", "--cache-dir",
             tmp_path / "cache", "--output", path, "--format"]
    main([str(arg) for arg in [*check, "json"]])
    return _cli(path, *check, "sarif")


def _history_export(tmp_path):
    db, path = tmp_path / "db.jsonl", tmp_path / "export.json"
    HistoryStore.open(db).record_and_append("STREAM", 1.0,
                                            params={"nodes": 1})
    path.write_text("{}\n")
    return _cli(path, "history", db, "--export", path)


def _submit_direct_export(tmp_path):
    path = tmp_path / "direct.json"
    path.write_text("{}\n")
    return _cli(path, "submit", "--direct", "--benchmarks", "STREAM",
                "--export", path)


def _submit_spool(tmp_path):
    spool = ["submit", "--spool", str(tmp_path / "spool"),
             "--benchmarks", "STREAM"]
    main(spool)
    (path,) = (tmp_path / "spool").iterdir()
    path.write_text("{}\n")        # a stale envelope the next submit replaces
    return _cli(path, *spool)


def _serve(flag):
    def writer(tmp_path):
        spool, path = tmp_path / "spool", tmp_path / "out.json"
        main(["submit", "--spool", str(spool), "--benchmarks", "STREAM"])
        path.write_text("{}\n")
        return _cli(path, "serve", "--spool", spool, flag, path)
    return writer


WRITERS = {"check baseline": _baseline,
           "history compact": _history_compact,
           "disk-cache entry": _disk_cache_put,
           "chrome trace": _chrome_trace,
           "fault plan": _fault_plan,
           "run journal": _run_journal,
           "chaos trace": _chaos_trace,
           "check --output": _check_output,
           "history --export": _history_export,
           "submit --direct --export": _submit_direct_export,
           "submit --spool envelope": _submit_spool,
           "serve --dispatch-log": _serve("--dispatch-log"),
           "serve --export": _serve("--export")}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_killed_part_way_keeps_the_previous_file(
        writer, tmp_path, monkeypatch):
    path, rewrite = WRITERS[writer](tmp_path)
    before = path.read_bytes()
    listing = sorted(p.name for p in path.parent.iterdir())
    real_write = Path.write_text
    temp_names = []

    for k in KILL_AFTER:
        def write_then_die(self, data, *args, **kw):
            temp_names.append(self.name)
            real_write(self, data[:k], *args, **kw)
            raise Killed(k)

        monkeypatch.setattr(Path, "write_text", write_then_die)
        with pytest.raises(Killed):
            rewrite()
        monkeypatch.setattr(Path, "write_text", real_write)
        assert path.read_bytes() == before, k
        assert sorted(p.name for p in path.parent.iterdir()) == listing, k

    assert temp_names and not any(
        fnmatch(name, "*.json") or fnmatch(name, "*.jsonl")
        for name in temp_names)
    rewrite()
    assert path.read_bytes() != before


def test_a_killed_cache_put_is_invisible_to_a_second_process(
        tmp_path, monkeypatch):
    """Another process sharing the directory sees the old entry, never
    a torn one it would delete."""
    _path, rewrite = _disk_cache_put(tmp_path)
    real_write = Path.write_text

    def die(self, data, *args, **kw):
        real_write(self, data[:5], *args, **kw)
        raise Killed

    monkeypatch.setattr(Path, "write_text", die)
    with pytest.raises(Killed):
        rewrite()
    monkeypatch.undo()
    other = DiskCache(tmp_path)
    assert other.keys() == ["k"]
    assert other.get("k") == (True, {"fom": 1.0})

