"""Tests of the telemetry exporters and schema: golden JSONL + Chrome
trace files (byte-stable via ManualClock), vmpi run ordinals, the
crash-safe sink and the offline report renderer."""

import io
import json
from pathlib import Path

import pytest

from repro.telemetry import (
    JsonlSink,
    ManualClock,
    SchemaError,
    Tracer,
    chrome_trace_events,
    emit_vmpi,
    read_events,
    validate_event,
    validate_file,
    write_chrome_trace,
)
from repro.telemetry.report import (
    cost_centre_table,
    journal_from_events,
    render_report,
)
from tests.regen_goldens import build_telemetry_tracer

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_TRACE = GOLDEN_DIR / "telemetry_trace.jsonl"
GOLDEN_CHROME = GOLDEN_DIR / "telemetry_chrome.json"


class _Spmd:
    """Duck-typed SpmdResult stand-in: two ranks, fixed buckets."""

    class _Trace:
        def __init__(self, compute, comm):
            self.compute = compute
            self.comm = comm

    def __init__(self):
        self.traces = [
            self._Trace({"gemm": 2.0}, {"bcast": 0.5}),
            self._Trace({"gemm": 1.5}, {"bcast": 1.0}),
        ]


class TestGoldens:
    def test_jsonl_golden_is_byte_stable(self):
        buffer = io.StringIO()
        build_telemetry_tracer(subscriber=JsonlSink(buffer))
        assert buffer.getvalue() == GOLDEN_TRACE.read_text(), (
            "telemetry JSONL export drifted from the golden; if the "
            "schema change is intentional, regenerate via "
            "'PYTHONPATH=src python tests/regen_goldens.py'")

    def test_jsonl_golden_validates(self):
        counts = validate_file(GOLDEN_TRACE)
        assert counts == {"meta": 1, "span": 3, "vmpi": 6}

    def test_chrome_golden_is_stable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, build_telemetry_tracer())
        assert json.loads(path.read_text()) == \
            json.loads(GOLDEN_CHROME.read_text()), (
                "Chrome trace export drifted from the golden; "
                "regenerate via tests/regen_goldens.py if intentional")


class TestJsonlSink:
    def test_flushes_every_event(self, tmp_path):
        """Crash-safety: the file is complete after every emit, before
        any close."""
        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(clock=ManualClock())
        tracer.subscribe(sink)
        with tracer.span("one"):
            pass
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # meta header + the span, pre-close
        assert json.loads(lines[0])["type"] == "meta"
        assert json.loads(lines[1])["name"] == "one"
        sink.close()
        assert validate_file(path) == {"meta": 1, "span": 1}


class TestVmpiOrdinals:
    def test_emit_vmpi_counts_runs_per_benchmark(self):
        tracer = Tracer(clock=ManualClock())
        emit_vmpi(tracer, "HPL", 1, _Spmd())
        emit_vmpi(tracer, "HPL", 2, _Spmd())
        emit_vmpi(tracer, "STREAM", 1, _Spmd())
        runs = {(e["benchmark"], e["run"]) for e in tracer.events()}
        assert runs == {("HPL", 1), ("HPL", 2), ("STREAM", 1)}

    def test_reemit_remaps_worker_local_ordinals(self):
        """Two workers each counted their own run as #1; adoption must
        keep the sweep points on distinct timelines."""
        from repro.telemetry.export import reemit_events

        worker_a, worker_b = Tracer(clock=ManualClock()), \
            Tracer(clock=ManualClock())
        emit_vmpi(worker_a, "HPL", 1, _Spmd())
        emit_vmpi(worker_b, "HPL", 2, _Spmd())
        parent = Tracer(clock=ManualClock())
        reemit_events(parent, worker_a.events())
        reemit_events(parent, worker_b.events())
        runs = {(e["benchmark"], e["run"]) for e in parent.events()}
        assert runs == {("HPL", 1), ("HPL", 2)}


    def test_run_ordinals_never_rescan_the_event_list(self, monkeypatch):
        """Numbering a run is O(1): the tracer keeps the last ordinal per
        benchmark as events arrive (directly emitted ones included)
        instead of ``emit_vmpi``/``reemit_events`` copying and rescanning
        every event once per task -- quadratic over a sweep, and paid by
        untraced runs too."""
        from repro.telemetry.export import reemit_events

        tracer = Tracer(clock=ManualClock())
        tracer.emit({"type": "vmpi", "benchmark": "HPL", "nodes": 1,
                     "rank": 0, "run": 4, "bucket": "comm",
                     "label": "bcast", "seconds": 1.0})
        worker = Tracer(clock=ManualClock())
        emit_vmpi(worker, "HPL", 2, _Spmd())
        emit_vmpi(worker, "HPL", 3, _Spmd())
        adopted = worker.events()

        def rescan():
            raise AssertionError("the event list was copied")

        monkeypatch.setattr(tracer, "events", rescan)
        assert tracer.last_vmpi_run("HPL") == 4
        assert tracer.last_vmpi_run("Arbor") == 0
        emit_vmpi(tracer, "HPL", 1, _Spmd())        # run 5
        emit_vmpi(tracer, "Arbor", 1, _Spmd())      # run 1
        reemit_events(tracer, adopted)              # runs 6 and 7
        assert tracer.last_vmpi_run("HPL") == 7
        assert tracer.last_vmpi_run("Arbor") == 1
        monkeypatch.undo()
        runs = sorted({(e["benchmark"], e["run"], e["nodes"])
                       for e in tracer.events()})
        assert runs == [("Arbor", 1, 1), ("HPL", 4, 1), ("HPL", 5, 1),
                        ("HPL", 6, 2), ("HPL", 7, 3)]


class TestChromeTrace:
    def test_ranks_become_tids_with_back_to_back_slices(self):
        tracer = Tracer(clock=ManualClock())
        emit_vmpi(tracer, "HPL", 4, _Spmd())
        events = chrome_trace_events([], tracer.events())
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in slices} == {0, 1}  # one tid per rank
        assert {e["cat"] for e in slices} == {"comm", "compute"}
        # per-rank virtual time is contiguous: next ts == prev ts + dur
        for rank in (0, 1):
            cursor = 0.0
            for entry in [e for e in slices if e["tid"] == rank]:
                assert entry["ts"] == pytest.approx(cursor)
                cursor += entry["dur"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "vmpi:HPL (4 nodes)" in names
        rank_names = {e["args"]["name"] for e in events
                      if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"rank 0", "rank 1"} <= rank_names

    def test_each_run_gets_its_own_pid(self):
        tracer = Tracer(clock=ManualClock())
        emit_vmpi(tracer, "HPL", 1, _Spmd())
        emit_vmpi(tracer, "HPL", 2, _Spmd())
        events = chrome_trace_events([], tracer.events())
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 2
        names = sorted(e["args"]["name"] for e in events
                       if e["ph"] == "M" and e["name"] == "process_name"
                       and e["pid"] >= 100)
        assert names == ["vmpi:HPL #2 (2 nodes)", "vmpi:HPL (1 nodes)"]

    def test_span_lanes_map_to_tids(self):
        tracer = build_telemetry_tracer()
        events = chrome_trace_events(tracer.finished(), [])
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["pid"] == 1 for e in spans)
        assert {e["name"] for e in spans} == \
            {"suite.run_all", "run:Arbor", "task:run:Arbor"}
        # microsecond timestamps
        run = [e for e in spans if e["name"] == "run:Arbor"][0]
        assert (run["ts"], run["dur"]) == (250000.0, 250000.0)


class TestSchemaValidation:
    def test_rejects_malformed_events(self):
        cases = [
            "not a dict",
            {"type": "nope"},
            {"type": "span", "span_id": 1},  # missing fields
            {"type": "span", "span_id": 1, "parent_id": None, "name": "x",
             "start": 2.0, "end": 1.0, "thread": 0, "attrs": {}},
            {"type": "vmpi", "benchmark": "b", "nodes": 1, "rank": 0,
             "bucket": "io", "label": "l", "seconds": 1.0},
            {"type": "task", "index": 0, "label": "l", "status": "error",
             "cache": "off", "attempts": 1, "started": 0.0,
             "finished": 1.0},  # error status without error text
            {"type": "meta", "version": 1, "schema": "someone/else"},
        ]
        for event in cases:
            with pytest.raises(SchemaError):
                validate_event(event)

    def test_accepts_the_event_family(self):
        validate_event({"type": "meta", "version": 1,
                        "schema": "repro.telemetry/v1"})
        validate_event({"type": "vmpi", "benchmark": "b", "nodes": 1,
                        "rank": 3, "bucket": "comm", "label": "p2p",
                        "seconds": 0.5})
        validate_event({"type": "metrics", "snapshot": {}})

    def test_validate_file_requires_meta_header(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"type":"metrics","snapshot":{}}\n')
        with pytest.raises(SchemaError, match="meta"):
            validate_file(path)


class TestOfflineReport:
    def test_journal_rebuilds_from_task_spans(self):
        tracer = build_telemetry_tracer()
        events = [s.to_event() for s in tracer.finished()]
        journal = journal_from_events(events)
        assert len(journal) == 1
        record = journal.records[0]
        assert (record.label, record.status, record.cache) == \
            ("run:Arbor", "ok", "miss")
        assert (record.started, record.finished) == (0.5, 1.0)

    def test_cost_centres_aggregate_over_ranks(self):
        tracer = Tracer(clock=ManualClock())
        emit_vmpi(tracer, "HPL", 4, _Spmd())
        table = cost_centre_table(tracer.events())
        assert "HPL -- 4 nodes, 2 ranks" in table
        # gemm: 2.0 + 1.5 = 3.5 of 5.0 total -> 70 %
        assert "gemm" in table and "70.0 %" in table

    def test_render_report_on_the_golden_trace(self):
        report = render_report(GOLDEN_TRACE)
        assert "run journal -- 1 tasks" in report
        assert "cost centres" in report
        assert "channels" in report

    def test_a_trace_cut_at_any_byte_reads_its_complete_events(
            self, tmp_path, capsys):
        """A run killed mid-write: every complete event loads and one
        warning line names the dropped bytes."""
        data = GOLDEN_TRACE.read_bytes()
        events = list(read_events(GOLDEN_TRACE))
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        assert len(ends) == len(events)
        path = tmp_path / "torn.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            complete = [end for end in ends if end <= cut]
            assert list(read_events(path)) == events[:len(complete)], cut
            start = complete[-1] if complete else 0
            err = capsys.readouterr().err
            if cut == start:
                assert err == ""
            else:
                assert err == (f"telemetry: warning: {path}: dropped "
                               f"{cut - start} byte(s) of a torn final line "
                               f"(an append was cut short)\n")

    def test_report_renders_a_trace_cut_short(self, tmp_path, capsys):
        from repro.cli import main

        data = GOLDEN_TRACE.read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1   # where the last event starts
        prefix = tmp_path / "prefix.jsonl"
        prefix.write_bytes(data[:last])
        assert main(["report", str(prefix)]) == 0
        expected = capsys.readouterr().out
        path = tmp_path / "torn.jsonl"
        for cut in range(last + 1, len(data)):
            path.write_bytes(data[:cut])
            assert main(["report", str(path)]) == 0
            captured = capsys.readouterr()
            assert captured.out == expected, cut
            assert captured.err.count("\n") == 1
            assert f"dropped {cut - last} byte(s)" in captured.err
