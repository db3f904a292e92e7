"""Unit tests of the benchmark harness itself.

Not part of tier-1 (``testpaths`` is ``tests``); run them with

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py

The last two tests run ``run.py`` end to end on the cheapest workload
(about half a minute together).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from harness import Stats  # noqa: E402
from trace import Recorder  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the scripted instants, one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class TestSelfTime:
    def test_nested_spans(self):
        # root 0..10 > a 1..9 > b 2..5
        rec = Recorder(clock=FakeClock(0, 1, 2, 5, 9, 10))
        with rec.span("root", "bench"):
            with rec.span("a", "outer"):
                with rec.span("b", "inner"):
                    pass
        assert rec.self_times() == {0: 2, 1: 5, 2: 3}
        assert rec.self_by_layer() == {"bench": 2, "outer": 5, "inner": 3}

    def test_sibling_spans(self):
        # root 0..10 > a 1..4, b 4..6, c 8..9
        rec = Recorder(clock=FakeClock(0, 1, 4, 4, 6, 8, 9, 10))
        with rec.span("root", "bench"):
            for name in "abc":
                with rec.span(name, "layer"):
                    pass
        selfs = rec.self_times()
        assert selfs[0] == 10 - (3 + 2 + 1)
        assert sum(selfs.values()) == rec.duration(rec.spans[0])
        assert rec.total("b") == 2
        assert rec.self_total("a", "c") == 4

    def test_parents_and_single_root(self):
        rec = Recorder()
        with rec.span("root", "bench") as root:
            with rec.span("child", "x") as child:
                pass
        assert rec.spans[root][1] is None
        assert rec.spans[child][1] == root

    def test_closing_out_of_order_is_an_error(self):
        rec = Recorder()
        outer = rec.begin("outer", "x")
        rec.begin("inner", "x")
        with pytest.raises(RuntimeError):
            rec.end(outer)


class TestPatching:
    def test_wraps_and_restores_a_method(self):
        import json.encoder as target

        original = target.JSONEncoder.encode
        rec = Recorder()
        seen = []
        assert rec.patch("json.encoder:JSONEncoder.encode", "encode", "json",
                         observe=lambda args, result: seen.append(result))
        assert json.dumps([1]) == "[1]"
        rec.unpatch()
        assert target.JSONEncoder.encode is original
        assert [s[2] for s in rec.spans] == ["encode"]
        assert seen == ["[1]"]

    def test_module_function_is_replaced_where_imported_by_name(self):
        import unittest.case
        import unittest.util

        original = unittest.util.safe_repr
        assert unittest.case.safe_repr is original
        rec = Recorder()
        assert rec.patch("unittest.util:safe_repr", "repr", "x", flat=True)
        try:
            assert unittest.case.safe_repr is unittest.util.safe_repr
            assert unittest.case.safe_repr(1) == "1"
        finally:
            rec.unpatch()
        assert unittest.case.safe_repr is original
        assert unittest.util.safe_repr is original
        assert rec.flat["repr"][0] == 1

    @pytest.mark.parametrize("target", [
        "no_such_module_anywhere:main",
        "json.encoder:NoSuchClass.encode",
        "json.encoder:JSONEncoder.no_such_method",
        "json.encoder:INFINITY",              # resolves, but not a function
    ])
    def test_unresolved_entry_point_is_named_not_raised(self, target):
        rec = Recorder()
        assert rec.patch(target, "x", "y") is False
        assert rec.unresolved == [target]
        rec.unpatch()


class TestSpec:
    def test_metric_names_are_well_formed_and_unique(self):
        names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert all(run.METRIC_NAME.fullmatch(n) for n in names)
        assert len(names) == len(set(names))

    def test_workloads_match_the_implementation(self):
        from workloads import WORKLOADS

        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
        assert all(w["why"] == WORKLOADS[w["name"]].why
                   for w in SPEC["workloads"])

    def test_corpus_hash_is_pinned(self):
        import hashlib

        blob = (HERE / "corpus" / "repro-pr10.tar.gz").read_bytes()
        pinned = (HERE / "corpus" / "SHA256").read_text().split()[0]
        assert hashlib.sha256(blob).hexdigest() == pinned


class TestVerdict:
    def test_within_bound_is_ok(self):
        assert run.verdict([1.0, 1.01], [1.04, 1.05], 0.10, True)[1] == "ok"

    def test_beyond_bound_is_worse(self):
        worse_by, word = run.verdict([1.0, 1.01], [1.2, 1.21], 0.10, True)
        assert word == "worse" and worse_by > 0.10

    def test_higher_is_better_flips_the_sign(self):
        assert run.verdict([10.0, 10.1], [8.0, 8.1], 0.10, False)[1] == "worse"
        assert run.verdict([10.0, 10.1], [12.0, 12.1], 0.10, False)[1] == "ok"

    def test_wide_overlapping_spread_is_unresolved(self):
        assert run.verdict([1.0, 1.3], [1.1, 1.25], 0.10, True)[1] \
            == "unresolved"

    def test_wide_but_separated_runs_still_decide(self):
        assert run.verdict([1.0, 1.3], [0.5, 0.7], 0.10, True)[1] == "ok"
        assert run.verdict([1.0, 1.3], [2.0, 2.6], 0.10, True)[1] == "worse"

    def test_spread_is_range_over_median(self):
        assert Stats([1.0, 2.0, 4.0]).spread == 1.5


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_declared_metric_is_printed(trace, section):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite_all",
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {line.split()[0] for line in lines[2:-1]}
    for entry in SPEC[section]:
        assert entry["name"] in printed
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert set(result["metrics"]) == {e["name"] for e in SPEC[section]}
