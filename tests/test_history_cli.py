"""CLI tests for the performance-history plane: ``--history``
appending, ``jubench history`` / ``jubench regress`` / ``jubench
report`` rendering, and the issue's acceptance scenario (a synthetic
history with one injected 15% FOM drop)."""

import json
import random
from dataclasses import replace

import pytest

from repro.cli import main
from repro.history import HistoryStore, RunRecord


def synthetic_db(path, *, drop_at: int | None = None, n: int = 12,
                 drop: float = 1.15, noise: float = 0.01) -> HistoryStore:
    """A seeded ~1%-noise ICON series, optionally with one slow point."""
    rng = random.Random(1234)
    store = HistoryStore.open(path)
    for i in range(n):
        fom = 100.0 * (1.0 + noise * (2.0 * rng.random() - 1.0))
        if drop_at is not None and i == drop_at:
            fom *= drop
        store.append(RunRecord(benchmark="ICON", params={"nodes": 256},
                               fom_seconds=fom, vmpi_mode="event",
                               code=f"commit{i:02d}"))
    return store


class TestHistoryAppendFlag:
    def test_run_appends_record(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        assert main(["run", "Arbor", "--history", str(db)]) == 0
        out = capsys.readouterr().out
        assert f"history: 1 record(s) in {db}" in out
        store = HistoryStore.open(db)
        [rec] = store.records
        assert rec.benchmark == "Arbor"
        assert rec.fom_seconds == pytest.approx(489, rel=0.1)
        assert rec.params["study"] == "run"
        assert rec.machine == "JUWELS Booster"
        assert rec.code

    def test_suite_appends_one_record_per_benchmark(self, tmp_path):
        db = tmp_path / "h.jsonl"
        argv = ["suite", "--benchmarks", "Arbor,HPL,STREAM",
                "--history", str(db)]
        assert main(argv) == 0
        assert main(argv) == 0  # replay extends the same series
        store = HistoryStore.open(db)
        assert store.benchmarks() == ["Arbor", "HPL", "STREAM"]
        assert [r.seq for r in store.select("Arbor").popitem()[1]] == [0, 1]

    def test_vmpi_mode_splits_series(self, tmp_path):
        """``vmpi_mode`` is a plain data field: a database written while
        there were two engine cores keeps its two series, and new runs
        extend the "event" one."""
        db = tmp_path / "h.jsonl"
        assert main(["run", "STREAM", "--history", str(db)]) == 0
        store = HistoryStore.open(db)
        [new] = store.records
        assert new.vmpi_mode == "event"
        store.append(replace(new, vmpi_mode="step"))
        assert main(["run", "STREAM", "--history", str(db)]) == 0
        series = HistoryStore.open(db).select("STREAM").values()
        assert sorted([r.vmpi_mode for r in recs] for recs in series) == \
            [["event", "event"], ["step"]]

    def test_fig2_appends_per_app_curves(self, tmp_path):
        db = tmp_path / "h.jsonl"
        assert main(["fig2", "--apps", "Arbor,GROMACS",
                     "--history", str(db)]) == 0
        store = HistoryStore.open(db)
        assert store.benchmarks() == ["Arbor", "GROMACS"]
        [arbor] = store.select("Arbor").popitem()[1]
        assert arbor.params["study"] == "fig2"
        assert any(k.startswith("runtime_n") for k in arbor.foms)

    def test_fig3_appends_efficiency_foms(self, tmp_path):
        db = tmp_path / "h.jsonl"
        assert main(["fig3", "--nodes", "1,2,8",
                     "--history", str(db)]) == 0
        store = HistoryStore.open(db)
        assert len(store.benchmarks()) == 5  # the High-Scaling set
        for recs in store.select().values():
            assert recs[-1].params["study"] == "fig3"
            assert any(k.startswith("eff_n") for k in recs[-1].foms)


class TestRegressCommand:
    def test_flags_exactly_the_injected_drop(self, tmp_path, capsys):
        """The issue's acceptance scenario: a synthetic history with
        one injected 15% FOM drop flags exactly that point and nothing
        on the stationary prefix -- and exits 1."""
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        assert main(["regress", str(db)]) == 1
        out = capsys.readouterr().out
        assert "! point 9:" in out
        assert out.count("! point") == 1
        assert "verdict: REGRESSION (1 flagged point across 1 series)" in out

    def test_quiet_on_stationary_history(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db)
        assert main(["regress", str(db)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_json_verdicts_are_bit_reproducible(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        assert main(["regress", str(db), "--json"]) == 1
        first = capsys.readouterr().out
        assert main(["regress", str(db), "--json"]) == 1
        assert capsys.readouterr().out == first
        summaries = json.loads(first)
        [(key, summary)] = summaries.items()
        assert key.startswith("ICON-")
        assert summary["benchmark"] == "ICON"
        assert summary["counts"]["regression"] == 1
        statuses = [v["status"] for v in summary["verdicts"]]
        assert statuses[9] == "regression"

    def test_explain_prints_inference_trace(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        main(["regress", str(db), "--explain"])
        out = capsys.readouterr().out
        assert "margin=max(" in out and "-> regression" in out

    def test_thresholds_are_configurable(self, tmp_path):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9, drop=1.015, noise=0.002)
        # a 1.5% drop sits under the default 2% slack band; tightening
        # the thresholds makes the same history alert
        assert main(["regress", str(db)]) == 0
        assert main(["regress", str(db), "--slack", "0.005",
                     "--sigma", "2.0"]) == 1

    def test_benchmark_filter(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        assert main(["regress", str(db), "--benchmark", "JUQCS"]) == 0
        assert "no recorded runs" in capsys.readouterr().out


class TestHistoryCommand:
    def test_trajectory_rendering(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        assert main(["history", str(db), "--last", "6"]) == 0
        out = capsys.readouterr().out
        assert "FOM trajectories (lower is better)" in out
        assert "flagged regressions: 1" in out
        assert "seq  11" in out and "seq   5" not in out  # last-6 window

    def test_canonical_export_matches_store(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        store = synthetic_db(db)
        out_file = tmp_path / "export.json"
        assert main(["history", str(db), "--export", str(out_file)]) == 0
        assert out_file.read_text() == store.canonical_export()
        capsys.readouterr()
        assert main(["history", str(db), "--export", "-"]) == 0
        assert capsys.readouterr().out == store.canonical_export()

    def test_export_byte_identical_across_replays(self, tmp_path):
        synthetic_db(tmp_path / "a.jsonl")
        synthetic_db(tmp_path / "b.jsonl")
        for name in ("a", "b"):
            main(["history", str(tmp_path / f"{name}.jsonl"),
                  "--export", str(tmp_path / f"{name}.export")])
        assert (tmp_path / "a.export").read_bytes() == \
            (tmp_path / "b.export").read_bytes()

    def test_compact_applies_retention(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db)
        assert main(["history", str(db), "--compact", "5"]) == 0
        assert "compacted 12 -> 5 record(s)" in capsys.readouterr().out
        assert len(HistoryStore.open(db)) == 5

    def test_torn_db_renders_its_complete_prefix(self, tmp_path, capsys):
        db = tmp_path / "torn.jsonl"
        synthetic_db(db, n=3)
        db.write_bytes(db.read_bytes()[:-40])
        assert main(["history", str(db)]) == 0
        captured = capsys.readouterr()
        assert "seq   1" in captured.out and "seq   2" not in captured.out
        assert "torn final line" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_input_files_are_one_error_line(self, tmp_path, capsys):
        """A malformed DB, trace or fault plan is ``jubench: error:
        <path:lineno: message>`` and exit code 2 -- never a traceback."""
        db = tmp_path / "h.jsonl"
        synthetic_db(db, n=3)
        lines = db.read_text().splitlines(keepends=True)
        db.write_text(lines[0] + lines[1] + lines[2][:50] + "\n" + lines[3])
        not_a_plan = tmp_path / "plan.json"
        not_a_plan.write_text('{"nodes": [{"at": 1.0}]}')
        bad_trace = tmp_path / "t.jsonl"
        bad_trace.write_text('{"type": "meta", "schema": "nope/v0"}\n')
        for argv, where in (
                (["history", str(db)], f"{db}:3: not JSON"),
                (["regress", str(db)], f"{db}:3: not JSON"),
                (["suite", "--benchmarks", "STREAM",
                  "--faults", str(not_a_plan)], f"{not_a_plan}: not a fault"),
                (["suite", "--faults", str(tmp_path / "missing.json")],
                 "missing.json: not a fault plan"),
                (["report", str(bad_trace)], "t.jsonl")):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("jubench: error: ") and where in err, err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("garbage", ["[]", "1", '"x"', "null"])
    @pytest.mark.parametrize("lineno", [1, 3])
    @pytest.mark.parametrize("command", [
        ["history"], ["regress"], ["report"], ["run", "STREAM", "--history"]],
        ids=lambda argv: argv[0])
    def test_a_line_that_is_json_but_not_an_object_is_one_error_line(
            self, command, lineno, garbage, tmp_path, capsys):
        """Valid JSON that is not an object -- as the header or as a
        record -- names its line, like any other malformed line."""
        db = tmp_path / "h.jsonl"
        synthetic_db(db, n=3)
        lines = db.read_text().splitlines(keepends=True)
        lines[lineno - 1] = garbage + "\n"
        db.write_text("".join(lines))
        assert main([*command, str(db)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"jubench: error: {db}:{lineno}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestReportTrajectorySection:
    def test_report_renders_history_db_directly(self, tmp_path, capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db, drop_at=9)
        assert main(["report", str(db)]) == 0
        out = capsys.readouterr().out
        assert "FOM trajectories (lower is better)" in out
        assert "flagged regressions: 1" in out

    def test_report_appends_trajectory_to_trace_report(self, tmp_path,
                                                       capsys):
        db = tmp_path / "h.jsonl"
        synthetic_db(db)
        trace = tmp_path / "trace.jsonl"
        assert main(["suite", "--benchmarks", "STREAM",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "--history", str(db)]) == 0
        out = capsys.readouterr().out
        assert "cost centres" in out or "telemetry report" in out
        assert "FOM trajectories (lower is better)" in out
