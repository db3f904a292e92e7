"""Tests for the performance-history plane: run records + the
append-only store (identity keys, JSONL round-trip, canonical
byte-identity across workers and replays, retention)."""

import json
import random
import threading

import pytest

from repro.cluster import juwels_booster
from repro.core import load_suite
from repro.exec import ExecutionEngine, MemoryCache
from repro.history import (
    HISTORY_SCHEMA,
    HistoryStore,
    RunRecord,
    build_record,
    code_fingerprint,
    machine_config_hash,
    stamp,
)
from repro.history.store import HistoryError, is_history_file
from repro.telemetry import ManualClock, Tracer


def _rec(benchmark="ICON", fom=100.0, **kwargs):
    kwargs.setdefault("params", {"nodes": 256})
    kwargs.setdefault("vmpi_mode", "event")
    kwargs.setdefault("code", "deadbeef")
    return RunRecord(benchmark=benchmark, fom_seconds=fom, **kwargs)


class TestRunRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunRecord(benchmark="")
        with pytest.raises(ValueError):
            RunRecord(benchmark="ICON", fom_seconds=-1.0)

    def test_series_key_ignores_code(self):
        a = _rec(code="aaaa")
        b = _rec(code="bbbb")
        assert a.series_key == b.series_key
        assert a.record_key != b.record_key
        assert a.record_key.startswith(a.series_key)

    def test_series_key_separates_configs(self):
        base = _rec()
        assert _rec(params={"nodes": 512}).series_key != base.series_key
        assert _rec(vmpi_mode="step").series_key != base.series_key
        assert _rec(benchmark="JUQCS").series_key != base.series_key
        other_machine = _rec(machine_hash="ffff0000ffff0000")
        assert other_machine.series_key != base.series_key

    def test_keys_are_stable_content_addresses(self):
        # regenerating the same record yields the same keys (no clocks,
        # no object identity in the hash)
        assert _rec().series_key == _rec().series_key
        assert _rec().record_key == _rec().record_key

    def test_canonical_excludes_volatile(self):
        rec = _rec(volatile={"wall_seconds": 1.23, "host": "node-1"})
        assert "volatile" not in rec.canonical()
        assert rec.to_line()["volatile"] == {"wall_seconds": 1.23,
                                             "host": "node-1"}

    def test_value_prefers_fom_over_wall_clock(self):
        assert _rec(fom=2.0).value == 2.0
        timed = RunRecord(benchmark="bench:fig2",
                          volatile={"wall_seconds": 0.5})
        assert timed.value == 0.5
        assert RunRecord(benchmark="bench:fig2").value is None

    def test_line_round_trip(self):
        rec = _rec(foms={"eff_n8": 0.93}, seed=42,
                   spans={"task:run": {"count": 3}},
                   journal="ab" * 8, volatile={"wall_seconds": 0.1})
        rec.seq = 4
        back = RunRecord.from_line(json.loads(json.dumps(rec.to_line())))
        assert back == rec
        assert back.record_key == rec.record_key


class TestStamps:
    def test_machine_config_hash_tracks_config(self):
        booster = juwels_booster()
        assert machine_config_hash(booster) == machine_config_hash(
            juwels_booster())
        smaller = booster.with_nodes(64)
        assert machine_config_hash(smaller) != machine_config_hash(booster)

    def test_code_fingerprint_reads_git_head(self, tmp_path):
        git = tmp_path / "pkg" / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("c0ffee" * 6 + "\n")
        assert code_fingerprint(tmp_path / "pkg" / "sub") == "c0ffee" * 6

    def test_code_fingerprint_packed_refs(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled\n"
            f"{'ab' * 20} refs/heads/main\n")
        assert code_fingerprint(tmp_path) == "ab" * 20

    def test_code_fingerprint_fallback_without_git(self, tmp_path):
        from repro.exec.cache import CODE_VERSION

        assert code_fingerprint(tmp_path) == CODE_VERSION

    def test_stamp_adds_provenance_block(self):
        out = stamp({"speedup": 12.0}, code="feed" * 10)
        assert out["speedup"] == 12.0
        prov = out["provenance"]
        assert prov["code"] == "feed" * 10
        assert prov["schema"] == HISTORY_SCHEMA
        assert prov["machine"] == "JUWELS Booster"
        assert prov["machine_hash"] == machine_config_hash(juwels_booster())

    def test_record_builder_stamps_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_MODE", "step")   # no longer read
        rec = build_record("ICON", 10.0, system=juwels_booster(), seed=7)
        assert rec.vmpi_mode == "event"   # the constant old series carry
        assert rec.machine == "JUWELS Booster"
        assert rec.machine_hash == machine_config_hash(juwels_booster())
        assert rec.seed == 7
        assert rec.code  # git commit of this repo (or CODE_VERSION)

    def test_record_builder_splits_span_rollup(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("phase:a"):
            pass
        with tracer.span("phase:a"):
            pass
        rec = build_record("ICON", 10.0, tracer=tracer, code="c")
        assert rec.spans == {"phase:a": {"count": 2}}
        # wall-clock totals are provenance, outside the canonical form
        assert rec.volatile["span_seconds"]["phase:a"] == pytest.approx(2.0)
        assert "span_seconds" not in json.dumps(rec.canonical())

    def test_record_builder_links_journal_digest(self):
        engine = ExecutionEngine(workers=2, cache=MemoryCache())
        suite = load_suite()
        suite.engine = engine
        try:
            suite.run_all(["Arbor", "STREAM"])
        finally:
            suite.engine = None
        rec = build_record("suite", 1.0, engine=engine, code="c")
        assert rec.journal == engine.journal.digest()
        # the digest is canonical: independent of worker scheduling
        assert rec.journal == engine.journal.canonical().digest()


class TestHistoryStore:
    def test_append_assigns_per_series_seq(self):
        store = HistoryStore()
        a0 = store.append(_rec())
        b0 = store.append(_rec(benchmark="JUQCS"))
        a1 = store.append(_rec())
        assert (a0.seq, a1.seq, b0.seq) == (0, 1, 0)
        assert [r.seq for r in store.series(a0.series_key)] == [0, 1]

    def test_file_backed_round_trip(self, tmp_path):
        db = tmp_path / "h.jsonl"
        store = HistoryStore.open(db)
        store.append(_rec())
        store.append(_rec(fom=101.0))
        again = HistoryStore.open(db)
        assert len(again) == 2
        assert again.canonical_export() == store.canonical_export()
        # appends continue the sequence across processes
        again.append(_rec(fom=102.0))
        assert [r.seq for r in again.series(_rec().series_key)] == [0, 1, 2]

    def test_a_missing_directory_is_not_created(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            HistoryStore.open(tmp_path / "nodir" / "h.jsonl")
        assert not (tmp_path / "nodir").exists()

    def test_meta_header_guards_foreign_files(self, tmp_path):
        bad = tmp_path / "not-history.jsonl"
        bad.write_text('{"type": "meta", "schema": "repro.telemetry/v1"}\n')
        with pytest.raises(HistoryError):
            HistoryStore.open(bad)
        assert not is_history_file(bad)
        good = tmp_path / "h.jsonl"
        HistoryStore.open(good)
        assert is_history_file(good)

    def test_malformed_record_reported_with_location(self, tmp_path):
        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).append(_rec())
        with open(db, "a", encoding="utf-8") as fh:
            fh.write('{"params": {}}\n')
        with pytest.raises(HistoryError, match=r"h\.jsonl:3"):
            HistoryStore.open(db)

    def test_torn_header_starts_the_database_over(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        db.write_bytes(b'{"schema":"repro.hist')
        store = HistoryStore.open(db)
        assert len(store) == 0 and "dropped 21 byte(s)" in capsys.readouterr().err
        store.append(_rec())
        assert is_history_file(db) and len(HistoryStore.open(db)) == 1

    def test_malformed_line_before_the_tail_stays_an_error(self, tmp_path):
        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).append(_rec())
        with open(db, "a", encoding="utf-8") as fh:
            fh.write('{"benchmark": "IC\n')          # complete line, not JSON
            fh.write('{"benchmark": "ICON", "fom')   # and a torn tail after
        with pytest.raises(HistoryError, match=r"h\.jsonl:3: not JSON"):
            HistoryStore.open(db)

    def test_canonical_export_is_replay_stable(self, tmp_path):
        def build(path):
            store = HistoryStore.open(path)
            for fom in (100.0, 101.0, 99.5):
                store.append(_rec(fom=fom))
                store.append(_rec(benchmark="JUQCS", fom=fom / 10))
            return store.canonical_export()

        first = build(tmp_path / "a.jsonl")
        second = build(tmp_path / "b.jsonl")
        assert first == second
        # and volatile data never leaks into the canonical document
        store = HistoryStore.open(tmp_path / "c.jsonl")
        store.append(_rec(volatile={"wall_seconds": 123.0}))
        assert "wall_seconds" not in store.canonical_export()

    def test_canonical_export_independent_of_append_interleaving(self):
        # same records per series, different cross-series interleaving
        a = HistoryStore()
        b = HistoryStore()
        for fom in (1.0, 2.0):
            a.append(_rec(fom=fom))
        for fom in (5.0, 6.0):
            a.append(_rec(benchmark="JUQCS", fom=fom))
        for icon, juqcs in ((1.0, 5.0), (2.0, 6.0)):
            b.append(_rec(benchmark="JUQCS", fom=juqcs))
            b.append(_rec(fom=icon))
        assert a.canonical_export() == b.canonical_export()

    def test_concurrent_appends_consistent(self):
        store = HistoryStore()

        def add(n):
            for _ in range(n):
                store.append(_rec())

        threads = [threading.Thread(target=add, args=(25,))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [r.seq for r in store.series(_rec().series_key)]
        assert seqs == list(range(100))

    def test_compact_keeps_last_per_series(self, tmp_path):
        db = tmp_path / "h.jsonl"
        store = HistoryStore.open(db)
        for fom in (1.0, 2.0, 3.0, 4.0, 5.0):
            store.append(_rec(fom=fom))
        store.append(_rec(benchmark="JUQCS", fom=9.0))
        compacted = store.compact(2)
        assert compacted.path == db
        key = _rec().series_key
        kept = compacted.series(key)
        assert [(r.seq, r.fom_seconds) for r in kept] == [(3, 4.0), (4, 5.0)]
        # the other (short) series survives untouched
        assert len(compacted.series(_rec(benchmark="JUQCS").series_key)) == 1
        # the rewrite is durable and still a valid history DB
        reread = HistoryStore.open(db)
        assert reread.canonical_export() == compacted.canonical_export()
        with pytest.raises(ValueError):
            store.compact(0)

    def test_compact_bytes_match_per_series_reference(self, tmp_path):
        """compact groups once instead of re-sorting the store per
        series; the file it writes must not change by a byte."""
        rng = random.Random(7)
        db = tmp_path / "seeded.jsonl"
        store = HistoryStore.open(db)
        shapes = [(f"app{i}", nodes) for i in range(4) for nodes in (1, 4, 16)]
        for k in range(300):          # interleaved series, repeated codes
            name, nodes = rng.choice(shapes)
            store.append(_rec(benchmark=name, fom=rng.uniform(1.0, 9.0),
                              params={"nodes": nodes}, code=f"c{k % 7}"))
        reference = HistoryStore()    # the per-series formulation
        for key in store.series_keys():
            for rec in store.series(key)[-5:]:
                reference._adopt(rec)
        reference.save(tmp_path / "reference.jsonl")
        compacted = store.compact(5)
        assert len(compacted) == 5 * len(shapes)
        assert db.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    def test_select_filters_by_benchmark(self):
        store = HistoryStore()
        store.append(_rec())
        store.append(_rec(benchmark="JUQCS"))
        assert set(store.benchmarks()) == {"ICON", "JUQCS"}
        only = store.select("ICON")
        assert len(only) == 1
        assert all(r.benchmark == "ICON"
                   for recs in only.values() for r in recs)


class TestEngineIntegration:
    def _suite_foms(self, workers):
        engine = ExecutionEngine(workers=workers, cache=MemoryCache())
        suite = load_suite()
        suite.engine = engine
        try:
            results = suite.run_all(["Arbor", "JUQCS", "HPL", "STREAM"])
        finally:
            suite.engine = None
        store = HistoryStore()
        for res in results:
            store.append(build_record(res.benchmark, res.fom_seconds,
                                      params={"nodes": res.nodes},
                                      system=juwels_booster(),
                                      engine=engine, code="pinned"))
        return store.canonical_export()

    def test_canonical_export_byte_identical_across_workers(self):
        assert self._suite_foms(1) == self._suite_foms(8)
