"""Engine tests: baseline round-trip, classification, incremental
cache, parallel parity, repo cleanliness."""

import json
from pathlib import Path

from repro.check import (
    Analyzer,
    Baseline,
    load_baseline,
    runtime_contract_findings,
    save_baseline,
)
from repro.exec import DiskCache

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "check"


# -- baseline round-trip -----------------------------------------------------

def test_baseline_round_trip(tmp_path):
    """Finding -> --write-baseline -> clean run, end to end."""
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "model.py").write_text(
        "import time\n\n\ndef run():\n    t = time.time()\n")

    first = Analyzer().run(tmp_path, rel_base=tmp_path)
    assert [f.rule for f in first.active] == ["DET001"]
    assert first.failed()

    baseline_path = tmp_path / "check-baseline.json"
    save_baseline(baseline_path,
                  Baseline.from_findings(first.active,
                                         justification="known legacy"))

    second = Analyzer(baseline=load_baseline(baseline_path)).run(
        tmp_path, rel_base=tmp_path)
    assert not second.active and not second.failed()
    assert [f.justification for f in second.baselined] == ["known legacy"]
    assert not second.unused_baseline


def test_baseline_survives_line_shifts(tmp_path):
    """Matching is (rule, path, snippet): edits above don't invalidate."""
    tree = tmp_path / "apps"
    tree.mkdir()
    src = tree / "model.py"
    src.write_text("import time\n\n\ndef run():\n    t = time.time()\n")
    first = Analyzer().run(tmp_path, rel_base=tmp_path)
    baseline = Baseline.from_findings(first.active, justification="ok")

    # insert unrelated lines above the finding
    src.write_text("import time\n\nX = 1\nY = 2\n\n\ndef run():\n"
                   "    t = time.time()\n")
    second = Analyzer(baseline=baseline).run(tmp_path, rel_base=tmp_path)
    assert not second.active
    assert len(second.baselined) == 1


def test_stale_baseline_entries_reported(tmp_path):
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "model.py").write_text("X = 1\n")
    baseline = Baseline.from_findings([])
    from repro.check import BaselineEntry
    baseline = Baseline(entries=[BaselineEntry(
        rule="DET001", path="apps/model.py",
        snippet="return time.time()", justification="gone")])
    report = Analyzer(baseline=baseline).run(tmp_path, rel_base=tmp_path)
    assert len(report.unused_baseline) == 1
    assert report.unused_baseline[0].snippet == "return time.time()"


def test_baseline_file_round_trips_on_disk(tmp_path):
    from repro.check import BaselineEntry
    path = tmp_path / "b.json"
    baseline = Baseline(entries=[BaselineEntry(
        rule="CON102", path="core/registry.py",
        snippet="BenchmarkInfo(name='X')", justification="Table II")])
    save_baseline(path, baseline)
    data = json.loads(path.read_text())
    assert "_meta" in data
    loaded = load_baseline(path)
    assert [e.to_dict() for e in loaded.entries] == \
        [e.to_dict() for e in baseline.entries]
    assert load_baseline(tmp_path / "missing.json").entries == []


class Killed(BaseException):
    """A simulated kill: not an ``Exception``, so nothing may catch it."""


def test_baseline_write_killed_part_way_keeps_the_previous_file(
        tmp_path, monkeypatch):
    """``--write-baseline`` writes a temp file and renames it: a write
    cut after any byte leaves the old baseline byte for byte."""
    from repro.check import BaselineEntry
    path = tmp_path / "check-baseline.json"
    old = Baseline(entries=[BaselineEntry(
        rule="DET001", path="apps/a.py", snippet="t = time.time()",
        justification="old")])
    new = Baseline(entries=[*old.entries, BaselineEntry(
        rule="CON102", path="core/b.py", snippet="X()", justification="new")])
    save_baseline(path, old)
    before = path.read_bytes()
    real_write = Path.write_text

    for k in (0, 1, len(before) // 2, len(before) - 1, len(before) + 40):
        def write_then_die(self, data, *args, **kw):
            real_write(self, data[:k], *args, **kw)
            raise Killed(k)

        monkeypatch.setattr(Path, "write_text", write_then_die)
        try:
            save_baseline(path, new)
        except Killed:
            pass
        else:
            raise AssertionError("the write was not cut")
        assert path.read_bytes() == before, k
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    monkeypatch.setattr(Path, "write_text", real_write)
    assert save_baseline(path, new) == 2
    assert [e.justification for e in load_baseline(path).entries] == \
        ["old", "new"]


# -- engine edge cases -------------------------------------------------------

def test_syntax_error_becomes_finding(tmp_path):
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "broken.py").write_text("def broken(:\n")
    report = Analyzer().run(tmp_path, rel_base=tmp_path)
    assert [f.rule for f in report.active] == ["ENG001"]
    assert "syntax error" in report.active[0].message


def test_suppression_only_covers_named_rule(tmp_path):
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "model.py").write_text(
        "import time\nimport numpy as np\n\n\ndef run():\n"
        "    # repro: allow(DET001): timing demo\n"
        "    t = time.time()\n"
        "    return np.random.default_rng()\n")
    report = Analyzer().run(tmp_path, rel_base=tmp_path)
    # the DET002 on the next line is NOT covered by the DET001 allow
    assert [f.rule for f in report.active] == ["DET002"]
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_suppression_on_multiline_statement(tmp_path):
    """The allow comment rides the statement's *first* line even when
    the expression spans several physical lines."""
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "model.py").write_text(
        "import time\n\n\ndef run():\n"
        "    # repro: allow(DET001): demo timing\n"
        "    t = (time.time()\n"
        "         + 0.0)\n")
    report = Analyzer().run(tmp_path, rel_base=tmp_path)
    assert not report.active
    assert [f.justification for f in report.suppressed] == \
        ["demo timing"]


def test_baseline_entry_for_deleted_file_reported_stale(tmp_path):
    """An entry whose file no longer exists matches nothing and must
    show up as prunable, not crash or hide."""
    from repro.check import BaselineEntry
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "kept.py").write_text("X = 1\n")
    baseline = Baseline(entries=[BaselineEntry(
        rule="DET001", path="apps/deleted_long_ago.py",
        snippet="return time.time()", justification="was fine")])
    report = Analyzer(baseline=baseline).run(tmp_path, rel_base=tmp_path)
    assert not report.active
    assert [e.path for e in report.unused_baseline] == \
        ["apps/deleted_long_ago.py"]


# -- incremental + parallel runs ---------------------------------------------

def _dirty_tree(tmp_path):
    tree = tmp_path / "apps"
    tree.mkdir()
    (tree / "a.py").write_text(
        "import time\n\n\ndef run():\n    t = time.time()\n")
    (tree / "b.py").write_text(
        "def f(elapsed, nbytes):\n    return elapsed + nbytes\n")
    (tree / "c.py").write_text("X = 1\n")
    return tree


def test_cold_and_warm_cache_runs_are_identical(tmp_path):
    from repro.check import render_json
    tree_root = tmp_path / "proj"
    tree_root.mkdir()
    _dirty_tree(tree_root)
    cache = DiskCache(tmp_path / "cache")

    cold = Analyzer().run(tree_root, rel_base=tree_root, cache=cache)
    assert cold.cache_misses > 0 and cold.cache_hits == 0

    warm = Analyzer().run(tree_root, rel_base=tree_root, cache=cache)
    assert warm.cache_hits == cold.cache_misses
    assert warm.cache_misses == 0

    # the reports must agree byte-for-byte, counters excluded
    assert render_json(cold, strict=True) == render_json(warm,
                                                         strict=True)
    assert cold.counts() == warm.counts()
    assert "cache" not in json.dumps(cold.counts())


def test_editing_one_file_invalidates_only_it(tmp_path):
    tree_root = tmp_path / "proj"
    tree_root.mkdir()
    tree = _dirty_tree(tree_root)
    cache = DiskCache(tmp_path / "cache")
    Analyzer().run(tree_root, rel_base=tree_root, cache=cache)

    (tree / "c.py").write_text("X = 2\n")
    third = Analyzer().run(tree_root, rel_base=tree_root, cache=cache)
    assert third.cache_misses == 1
    assert third.cache_hits == 2


def test_changing_enabled_rules_changes_cache_keys(tmp_path):
    tree_root = tmp_path / "proj"
    tree_root.mkdir()
    _dirty_tree(tree_root)
    cache = DiskCache(tmp_path / "cache")
    Analyzer().run(tree_root, rel_base=tree_root, cache=cache)
    narrowed = Analyzer(only=["DET001"]).run(tree_root,
                                             rel_base=tree_root,
                                             cache=cache)
    assert narrowed.cache_hits == 0 and narrowed.cache_misses > 0
    assert [f.rule for f in narrowed.active] == ["DET001"]


def test_parallel_workers_match_serial(tmp_path):
    from repro.check import render_json
    tree_root = tmp_path / "proj"
    tree_root.mkdir()
    _dirty_tree(tree_root)
    serial = Analyzer().run(tree_root, rel_base=tree_root, workers=1)
    parallel = Analyzer().run(tree_root, rel_base=tree_root, workers=4)
    assert render_json(serial, strict=True) == \
        render_json(parallel, strict=True)
    assert [f.rule for f in serial.active] == \
        [f.rule for f in parallel.active]


# -- the repository itself must be clean -------------------------------------

def test_repo_is_clean_under_own_analyzer():
    """The acceptance criterion: `jubench check` is clean at HEAD."""
    baseline = load_baseline(REPO_ROOT / "check-baseline.json")
    analyzer = Analyzer(baseline=baseline)
    report = analyzer.run(REPO_ROOT / "src" / "repro",
                          rel_base=REPO_ROOT)
    assert not report.active, [f.render() for f in report.active]
    assert not report.unused_baseline
    # every exemption carries a justification (--strict contract)
    assert not report.failed(strict=True)


def test_runtime_contracts_clean_at_head():
    assert runtime_contract_findings() == []
