"""Telemetry integration with the execution engine and CLI: the
journal as a span-stream consumer, worker-count-invariant span trees,
cross-process clock rebasing, JSONL persistence and the observability
command-line surface."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.exec import ExecutionEngine, MemoryCache, RunJournal, WorkItem
from repro.exec.journal import TaskRecord
from repro.telemetry import JsonlSink, Tracer, validate_file
from repro.telemetry.export import emit_vmpi
from repro.telemetry.spans import current_tracer
from repro.vmpi.trace import RankTrace, SpmdResult

SRC = Path(__file__).resolve().parent.parent / "src"


def _double(x):
    return x * 2


def _boom():
    raise ValueError("kaput\nwith a second line\tand tabs")


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class _FlakyOnce:
    """Fails on the first call, succeeds afterwards (thread backend)."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("transient")
        return "ok"


def _task_tree(engine):
    """The engine's span tree, normalised for comparison: one entry
    per task span (sorted by submission index) with its attrs and its
    child spans' (name, status) pairs -- no ids, no timings."""
    spans = engine.tracer.finished()
    tasks = sorted((s for s in spans if s.attrs.get("kind") == "task"),
                   key=lambda s: s.attrs["index"])
    out = []
    for task in tasks:
        children = sorted(
            (c.name, c.attrs.get("status"), c.attrs.get("n"))
            for c in spans if c.parent_id == task.span_id)
        out.append((task.name, dict(task.attrs), children))
    return out


class TestJournalIsASpanConsumer:
    def test_task_spans_feed_the_journal(self):
        engine = ExecutionEngine(workers=1)
        engine.map([WorkItem(fn=_double, args=(i,), label=f"t{i}")
                    for i in range(3)])
        assert len(engine.journal) == 3
        records = engine.journal.records
        assert [r.label for r in records] == ["t0", "t1", "t2"]
        assert all(r.status == "ok" for r in records)
        # each task span has exactly one successful attempt child
        tree = _task_tree(engine)
        assert [t[0] for t in tree] == ["task:t0", "task:t1", "task:t2"]
        assert all(t[2] == [("attempt", "ok", 1)] for t in tree)

    def test_external_subscriber_sees_the_same_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        engine = ExecutionEngine(workers=2, backend="thread")
        sink = JsonlSink(path)
        engine.tracer.subscribe(sink)
        engine.map([WorkItem(fn=_double, args=(i,)) for i in range(4)])
        sink.close()
        rebuilt = RunJournal.from_jsonl(path)
        assert [r.label for r in rebuilt.records] == \
            [r.label for r in engine.journal.records]


class TestWorkerCountInvariance:
    def test_workers_1_vs_8_identical_span_trees(self):
        items = lambda: [  # noqa: E731 -- fresh WorkItems per engine
            WorkItem(fn=_double, args=(i,), label=f"job{i}")
            for i in range(10)]
        serial = ExecutionEngine(workers=1)
        serial.map(items())
        threaded = ExecutionEngine(workers=8, backend="thread")
        threaded.map(items())
        assert _task_tree(serial) == _task_tree(threaded)

    def test_failures_keep_the_trees_identical_too(self):
        def items():
            batch = [WorkItem(fn=_double, args=(i,), label=f"ok{i}")
                     for i in range(4)]
            batch.append(WorkItem(fn=_boom, label="bad"))
            return batch

        serial = ExecutionEngine(workers=1)
        serial.map(items())
        threaded = ExecutionEngine(workers=8, backend="thread")
        threaded.map(items())
        assert _task_tree(serial) == _task_tree(threaded)
        bad = _task_tree(serial)[-1]
        assert bad[1]["status"] == "error"
        assert "kaput" in bad[1]["error"]


class TestProcessClockRebase:
    def test_wall_seconds_live_on_the_parent_clock(self):
        engine = ExecutionEngine(workers=2, backend="process")
        before = engine.tracer.now()
        engine.map([WorkItem(fn=_nap, args=(0.05,), label=f"n{i}")
                    for i in range(2)])
        after = engine.tracer.now()
        stats = engine.journal.stats()
        # rebased intervals sit inside the parent-clock window ...
        for record in engine.journal.records:
            assert before <= record.started <= record.finished <= after
        # ... so the aggregate wall time is meaningful, not skewed
        assert 0.0 < stats.wall_seconds <= (after - before)
        assert stats.busy_seconds >= 0.1  # 2 x 0.05 s naps survived

    def test_worker_spans_are_grafted_under_task_spans(self):
        engine = ExecutionEngine(workers=2, backend="process")
        engine.map([WorkItem(fn=_double, args=(1,), label="t")])
        tree = _task_tree(engine)
        assert tree[0][2] == [("attempt", "ok", 1)]
        # the grafted attempt also lands inside the parent-clock window
        spans = {s.name: s for s in engine.tracer.finished()}
        task, attempt = spans["task:t"], spans["attempt"]
        assert task.start <= attempt.start <= attempt.end <= \
            task.end + 1e-6


class TestRetriesAndCache:
    def test_attempt_spans_count_retries(self):
        engine = ExecutionEngine(workers=2, backend="thread", retries=1)
        engine.map([WorkItem(fn=_FlakyOnce(), label="flaky")])
        tree = _task_tree(engine)
        assert tree[0][1]["attempts"] == 2
        assert tree[0][2] == [("attempt", "error", 1), ("attempt", "ok", 2)]

    def test_cache_hits_leave_attemptless_spans(self):
        engine = ExecutionEngine(workers=2, backend="thread",
                                 cache=MemoryCache())
        items = lambda: [WorkItem(fn=_double, args=(3,), key="k",  # noqa: E731
                                  label="cached")]
        engine.map(items())
        engine.map(items())
        tree = _task_tree(engine)
        assert [t[1]["cache"] for t in tree] == ["miss", "hit"]
        assert tree[1][2] == []  # a hit executes nothing
        hits = engine.metrics.counter("engine_tasks_total", status="ok",
                                      cache="hit")
        assert hits.value >= 1


class TestJournalSummaryAndPersistence:
    def _error_journal(self, errors):
        journal = RunJournal()
        for i, error in enumerate(errors):
            journal.append(TaskRecord(index=i, label=f"t{i}",
                                      status="error", cache="off",
                                      started=0.0, finished=0.1,
                                      error=error))
        return journal

    def test_multiline_errors_stay_on_one_line(self):
        journal = self._error_journal(["bad\nnews\ttoday\r!"])
        summary = journal.summary()
        lines = summary.splitlines()
        assert len(lines) == 3  # header, the task, totals
        assert "bad\\nnews\\ttoday\\r!" in summary

    def test_long_errors_truncate_with_ellipsis(self):
        journal = self._error_journal(["x" * 300])
        line = journal.summary().splitlines()[1]
        assert "…" in line
        assert len(line) < 200

    def test_max_errors_collapses_the_tail(self):
        journal = self._error_journal([f"boom {i}" for i in range(12)])
        summary = journal.summary(max_errors=3)
        assert "boom 2" in summary
        assert "boom 7" not in summary
        assert "… and 9 more errors" in summary

    def test_jsonl_round_trip(self, tmp_path):
        engine = ExecutionEngine(workers=1, retries=0)
        engine.map([WorkItem(fn=_double, args=(i,), label=f"t{i}")
                    for i in range(3)] + [WorkItem(fn=_boom, label="bad")])
        path = tmp_path / "journal.jsonl"
        assert engine.journal.to_jsonl(path) == 4
        assert validate_file(path) == {"meta": 1, "task": 4}
        rebuilt = RunJournal.from_jsonl(path)
        assert rebuilt.records == engine.journal.records
        assert rebuilt.summary() == engine.journal.summary()


class TestCliObservability:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_trace_out_jsonl_metrics_and_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert self._run(["suite", "--benchmarks", "STREAM",
                          "--trace-out", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics report" in out
        assert "engine_tasks_total" in out
        counts = validate_file(trace)
        assert counts["span"] >= 2   # suite driver + the task span
        assert counts["metrics"] == 1
        assert counts["vmpi"] > 0
        assert self._run(["report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "run journal -- 1 tasks" in report
        assert "cost centres" in report

    def test_trace_out_chrome_has_rank_timelines(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert self._run(["suite", "--benchmarks", "STREAM",
                          "--trace-out", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        vmpi = [e for e in events if e.get("pid", 0) >= 100
                and e["ph"] == "X"]
        assert vmpi, "expected vmpi rank slices in the Chrome trace"
        assert len({e["tid"] for e in vmpi}) > 1  # one tid per rank
        assert {e["cat"] for e in vmpi} <= {"compute", "comm"}

    def test_journal_path_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        assert self._run(["suite", "--benchmarks", "STREAM",
                          "--journal", str(path)]) == 0
        assert "journal: 1 task record(s)" in capsys.readouterr().out
        journal = RunJournal.from_jsonl(path)
        assert [r.label for r in journal.records] == ["run:STREAM"]

    def test_journal_flag_still_prints(self, capsys):
        assert self._run(["suite", "--benchmarks", "STREAM",
                          "--journal"]) == 0
        assert "run journal -- 1 tasks" in capsys.readouterr().out

    def test_ambient_tracer_restored_after_run(self, tmp_path):
        from repro.telemetry import NULL_TRACER, current_tracer

        self._run(["suite", "--benchmarks", "STREAM",
                   "--trace-out", str(tmp_path / "t.jsonl")])
        assert current_tracer() is NULL_TRACER


def _rank_program(label):
    """A task that records a two-rank vmpi run the way a scaling point
    does: on the ambient tracer, which inside an engine task is the
    attempt's collector."""
    traces = [RankTrace(compute={"step": 1.0 + r}, comm={"halo": 0.5})
              for r in range(2)]
    emit_vmpi(current_tracer(), label, 2,
              SpmdResult(values=[None, None], clocks=[1.5, 2.5],
                         traces=traces))
    return label


def _vmpi_events(engine):
    return [e for e in engine.tracer.events() if e.get("type") == "vmpi"]


class TestRankTimelinesOnlyWhenRead:
    """Per-rank vmpi events are built only into a tracer the engine was
    handed; its own tracer feeds the journal, which reads spans only."""

    @pytest.mark.parametrize("workers,backend", [
        (1, "serial"), (2, "thread"), (2, "process")])
    def test_engine_keeps_timelines_only_for_a_handed_tracer(
            self, workers, backend):
        items = [WorkItem(fn=_rank_program, args=(name,), label=name)
                 for name in ("A", "B")]
        own = ExecutionEngine(workers=workers, backend=backend)
        assert own.run(items) == ["A", "B"]
        assert _vmpi_events(own) == []
        handed = ExecutionEngine(workers=workers, backend=backend,
                                 tracer=Tracer())
        assert handed.run(items) == ["A", "B"]
        assert len(_vmpi_events(handed)) == 2 * 2 * 2   # tasks x ranks x 2
        assert _task_tree(own) == _task_tree(handed)

    def test_own_tracer_still_records_attempts_and_faults(self):
        from repro.exec.resilience import BackoffPolicy
        from repro.faults import FaultInjector, FaultPlan, TaskFaultRule

        plan = FaultPlan(tasks=(TaskFaultRule(match="A", attempts=(1,)),))
        engine = ExecutionEngine(workers=1, retries=1,
                                 faults=FaultInjector(plan),
                                 backoff=BackoffPolicy(seed=3))
        engine.map([WorkItem(fn=_rank_program, args=("A",), label="A")])
        attempts = [s for s in engine.tracer.finished()
                    if s.name == "attempt"]
        assert [s.attrs["status"] for s in attempts] == ["error", "ok"]
        assert "backoff" in attempts[0].attrs
        faults = [e for e in engine.tracer.events()
                  if e.get("type") == "fault"]
        assert [(e["category"], e["action"]) for e in faults] == \
            [("task", "inject")]
        assert _vmpi_events(engine) == []

    def test_untraced_command_makes_no_emit_calls(self, tmp_path):
        """Count guard in a fresh interpreter: an untraced ``fig3``
        calls ``Tracer.emit`` zero times; the same command traced
        calls it for every rank timeline (so the counter is live)."""
        code = (
            "import contextlib, io, sys\n"
            "from repro.telemetry.spans import Tracer\n"
            "calls = [0]\n"
            "emit = Tracer.emit\n"
            "def counted(self, event):\n"
            "    calls[0] += 1\n"
            "    return emit(self, event)\n"
            "Tracer.emit = counted\n"
            "from repro.cli import main\n"
            "counts = []\n"
            "for extra in ([], ['--trace-out', sys.argv[1]]):\n"
            "    calls[0] = 0\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['fig3', '--nodes', '8', *extra]) == 0\n"
            "    counts.append(calls[0])\n"
            "print(*counts)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "t.jsonl")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        untraced, traced = map(int, proc.stdout.split())
        assert untraced == 0
        assert traced > 0

    def test_traced_vmpi_events_match_serial_on_every_backend(
            self, tmp_path):
        from repro.cli import main

        def vmpi(*extra):
            path = tmp_path / f"t{len(list(tmp_path.iterdir()))}.jsonl"
            assert main(["fig3", "--nodes", "8,16", *extra,
                         "--trace-out", str(path)]) == 0
            return Counter(line for line in path.read_text().splitlines()
                           if '"type":"vmpi"' in line)

        serial = vmpi()
        assert sum(serial.values()) > 0
        assert vmpi("--workers", "2", "--backend", "thread") == serial
        assert vmpi("--workers", "2", "--backend", "process") == serial
