"""``Analyzer.run`` hands the caller's cyclic-GC state back unchanged.

A cold run parses with the collector off and freezes the parsed forest
(DESIGN.md §8): both are the run's own business.  On every way out --
cold, warm, one file edited, a thread pool, a rule that raises -- the
enabled flag and the freeze count read what they read on entry, and a
permanent generation the caller had already filled is left alone.
"""

import gc
import shutil
from pathlib import Path

import pytest

from repro.check import Analyzer
from repro.check.rules.contracts import ParamResolutionRule
from repro.exec import DiskCache

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "check"


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(FIXTURES, root)
    return root


@pytest.fixture
def freezes_seen(monkeypatch):
    """The freeze count a local rule saw while the run analysed."""
    seen = []
    real = ParamResolutionRule.check_module

    def check_module(self, module, out):
        seen.append(gc.get_freeze_count())
        return real(self, module, out)

    monkeypatch.setattr(ParamResolutionRule, "check_module", check_module)
    return seen


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    gc.unfreeze()
    (gc.enable if enabled else gc.disable)()


def gc_state() -> tuple[bool, int]:
    return gc.isenabled(), gc.get_freeze_count()


def test_cold_warm_and_edited_runs_restore_the_state(
        tree, tmp_path, freezes_seen):
    cache = DiskCache(tmp_path / "cache")
    entry = gc_state()
    assert entry == (True, 0)
    cold = Analyzer().run(tree, rel_base=tree, cache=cache)
    assert gc_state() == entry and cold.cache_misses > 0
    # the parsed forest was frozen while the rules ran
    assert freezes_seen and min(freezes_seen) > 0
    freezes_seen.clear()
    warm = Analyzer().run(tree, rel_base=tree, cache=cache)
    assert gc_state() == entry
    assert warm.cache_misses == 0 and freezes_seen == []
    with (tree / "apps" / "spec_params.py").open("a") as f:
        f.write("\nX = 1\n")
    edited = Analyzer().run(tree, rel_base=tree, cache=cache)
    assert gc_state() == entry and edited.cache_misses == 1
    assert freezes_seen and min(freezes_seen) > 0


def test_a_thread_pool_run_restores_the_state(tree, freezes_seen):
    entry = gc_state()
    Analyzer().run(tree, rel_base=tree, workers=2)
    assert gc_state() == entry
    assert freezes_seen and min(freezes_seen) > 0


def test_a_rule_that_raises_restores_the_state(tree, monkeypatch):
    def finalize(self, out):
        assert gc.get_freeze_count() > 0
        raise RuntimeError("finalize failed")

    monkeypatch.setattr(ParamResolutionRule, "finalize", finalize)
    entry = gc_state()
    with pytest.raises(RuntimeError, match="finalize failed"):
        Analyzer().run(tree, rel_base=tree)
    assert gc_state() == entry


def test_a_caller_that_disabled_the_gc_keeps_it_disabled(
        tree, freezes_seen, restore_gc):
    gc.disable()
    Analyzer().run(tree, rel_base=tree)
    assert gc_state() == (False, 0)
    assert freezes_seen and min(freezes_seen) > 0


def test_a_caller_that_froze_objects_keeps_its_count(
        tree, freezes_seen, restore_gc):
    gc.freeze()
    entry = gc_state()
    assert entry[1] > 0
    Analyzer().run(tree, rel_base=tree)
    assert gc_state() == entry
    # the run did not freeze into the caller's permanent generation
    assert set(freezes_seen) == {entry[1]}
