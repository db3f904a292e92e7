"""Soundness of the analyser's result cache, stated as a differential.

Project-scope findings (COMM5xx, CON101, XLY4xx, parse errors) are
cached as one entry keyed on everything they read, per-module findings
on the module's bytes plus what the project entry carries -- so "cold
and warm runs are identical" is no longer true by construction.  It is
true because, after any sequence of edits, evictions and corruptions,
a cached run renders the same bytes as a run with no cache at all.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import Analyzer, render_json, render_sarif
from repro.check.rules import expand_rule_prefixes
from repro.exec import DiskCache

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# -- a project in which every kind of cross-file dependency occurs -----------
#
# FIXED files are where findings are reported; each VARIANTS file has
# two states, and switching one named in MOVES moves a finding in a
# file that did not change.

FIXED = {
    "pkg/apps/prog.py":
        "from .helper import root_of\n\n\ndef prog(comm):\n"
        "    yield comm.bcast('cfg', root=root_of(comm))\n",
    "pkg/apps/export.py":
        "from .stamp import stamp\n\n\ndef canonical_export():\n"
        "    return {'when': stamp()}\n",
    "pkg/apps/use.py":
        "from .cost import transfer_cost\n\n\ndef price(nbytes):\n"
        "    return transfer_cost(nbytes)\n",
    "pkg/cli.py":
        "import argparse\n\n\ndef build():\n"
        "    p = argparse.ArgumentParser()\n"
        "    p.add_argument('--alpha')\n    p.add_argument('--beta')\n"
        "    return p\n",
    "pkg/telemetry/emit.py":
        "def announce(sink):\n"
        "    sink.emit({'type': 'metric', 'name': 'x'})\n",
}
VARIANTS = {
    "pkg/apps/helper.py": (
        "def root_of(comm):\n    return 0\n",
        "def root_of(comm):\n    return comm.rank\n"),
    "pkg/apps/stamp.py": (
        "def stamp():\n    return 0\n",
        "import time\n\n\ndef stamp():\n    return time.time()\n"),
    "pkg/apps/cost.py": (
        "DIMS = {'transfer_cost.t': 'B'}\n\n\ndef transfer_cost(t):\n"
        "    return t\n",
        "DIMS = {'transfer_cost.t': 's'}\n\n\ndef transfer_cost(t):\n"
        "    return t\n"),
    "README.md": ("Flags: `--alpha`, `--beta`.\n", "Flags: `--alpha`.\n"),
    "pkg/telemetry/schema.py": (
        "_REQUIRED = {'span': ('name',), 'metric': ('name',)}\n",
        "_REQUIRED = {'span': ('name',)}\n"),
    # one file the parser rejects (ENG001), one with an inline allow
    "pkg/apps/broken.py": ("def broken(:\n", "def mended():\n    pass\n"),
    "pkg/apps/allowed.py": (
        "import time\n\n\ndef run():\n"
        "    # repro: allow(DET001): demo timing\n"
        "    return time.time()\n",
        "import time\n\n\ndef run():\n    return time.time()\n"),
}
#: edited file -> (rule, file the finding appears in or vanishes from)
MOVES = {"pkg/apps/helper.py": ("COMM505", "pkg/apps/prog.py"),
         "pkg/apps/stamp.py": ("REP603", "pkg/apps/export.py"),
         "pkg/apps/cost.py": ("UNIT304", "pkg/apps/use.py"),
         "README.md": ("XLY402", "pkg/cli.py"),
         "pkg/telemetry/schema.py": ("XLY401", "pkg/telemetry/emit.py")}
SELECTIONS = (None, ["COMM"], ["REP"], ["XLY4", "DET"], ["UNIT", "CON"])
WRONG_SHAPES = ('{"value": [{"rule": "DET001"}]}', '{"value": 7}',
                '{"value": {"findings": "x", "registry": []}}')


def write_project(root: Path, rng: random.Random | None = None) -> None:
    """Every file, each in its first variant or (``rng``) a random one."""
    texts = {rel: rng.choice(v) if rng else v[0]
             for rel, v in VARIANTS.items()}
    for rel, text in {**FIXED, **texts}.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run(root: Path, select, *, cache=None, workers=1):
    only = expand_rule_prefixes(select) if select else ()
    return Analyzer(only=only).run(root / "pkg", rel_base=root,
                                   workers=workers, cache=cache)


def rendered(report) -> tuple[str, str]:
    return render_json(report, strict=True), render_sarif(report)


def step(rng: random.Random, root: Path, cache_dir: Path) -> None:
    """One random edit of the project or of the cache directory."""
    sources = sorted(p for p in (root / "pkg").rglob("*.py"))
    entries = sorted(cache_dir.glob("*.json"))
    kind = rng.choice(["switch"] * 6 + ["add", "delete", "rename", "evict",
                                        "corrupt", "nothing"])
    if kind == "switch":
        path = root / rng.choice(sorted(VARIANTS))
        first, second = VARIANTS[path.relative_to(root).as_posix()]
        gone = not path.exists() or path.read_text() != first
        path.write_text(first if gone else second)
    elif kind == "add":
        body = rng.choice(["X = 1\n", "import time\nT = time.time()\n",
                           "def f(elapsed, nbytes):\n"
                           "    return elapsed + nbytes\n"])
        (root / "pkg/apps" / f"extra{rng.randrange(4)}.py").write_text(body)
    elif kind == "delete" and sources:
        rng.choice(sources).unlink()
    elif kind == "rename" and sources:
        victim = rng.choice(sources)
        victim.rename(victim.with_name(f"moved{rng.randrange(4)}.py"))
    elif kind == "evict":
        for entry in entries:
            if rng.random() < 0.4:
                entry.unlink()
    elif kind == "corrupt":
        for entry in entries:
            if rng.random() < 0.4:
                blob = entry.read_bytes()
                entry.write_bytes(rng.choice(
                    [blob[:rng.randrange(len(blob))],
                     *(w.encode() for w in WRONG_SHAPES)]))


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", range(20))
def test_cached_run_never_differs_from_uncached(seed, workers, tmp_path):
    rng = random.Random(seed)
    root, cache_dir = tmp_path / "proj", tmp_path / "cache"
    write_project(root, rng)
    select = None
    for _ in range(20):
        # a fresh DiskCache per run, like a fresh process
        cached = run(root, select, cache=DiskCache(cache_dir),
                     workers=workers)
        assert rendered(cached) == rendered(run(root, select)), \
            (seed, select)
        again = run(root, select, cache=DiskCache(cache_dir),
                    workers=workers)
        assert again.cache_misses == 0
        assert rendered(again) == rendered(cached)
        if rng.random() < 0.25:
            select = rng.choice(SELECTIONS)
        step(rng, root, cache_dir)


def test_every_variant_changes_a_finding_elsewhere(tmp_path):
    """The fixture earns its keep: each two-variant file moves a
    finding, so a key that forgot a dependency would show above."""
    root = tmp_path / "proj"
    write_project(root)

    def sites(report):
        return {(f.rule, f.path) for f in report.active}

    before = sites(run(root, None))
    for rel, moved in MOVES.items():
        (root / rel).write_text(VARIANTS[rel][1])
        changed = sites(run(root, None)) ^ before
        assert {site for site in changed if site[1] != rel} == {moved}
        (root / rel).write_text(VARIANTS[rel][0])


def test_readme_edit_flips_xly402_on_a_warm_cache(tmp_path):
    """The README is read by a project rule but is not a module: it is
    in the project key only because XLY402 declares it as an input."""
    root, cache_dir = tmp_path / "proj", tmp_path / "cache"
    write_project(root)
    warm = [run(root, None, cache=DiskCache(cache_dir)) for _ in range(2)][1]
    assert warm.cache_misses == 0
    assert "XLY402" not in {f.rule for f in warm.active}
    (root / "README.md").write_text(VARIANTS["README.md"][1])
    edited = run(root, None, cache=DiskCache(cache_dir))
    assert [f.message for f in edited.active if f.rule == "XLY402"] == \
        ["CLI flag --beta is not mentioned in README.md; document it "
         "or drop it"]
    # no module changed: only the project entry was recomputed
    assert (edited.cache_hits, edited.cache_misses) == \
        (warm.cache_hits, 0)


# -- the cache read path -----------------------------------------------------

def test_torn_or_wrong_shaped_entry_is_a_miss(tmp_path):
    """Every entry, truncated at every byte offset and replaced by
    three well-formed documents of the wrong shape: recomputed,
    rewritten, and the report equal to the uncached one."""
    root, cache_dir = tmp_path / "proj", tmp_path / "cache"
    for rel, text in (("pkg/apps/stamp.py", VARIANTS["pkg/apps/stamp.py"][1]),
                      ("pkg/apps/export.py", FIXED["pkg/apps/export.py"])):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    expected = rendered(run(root, None))
    run(root, None, cache=DiskCache(cache_dir))
    entries = sorted(cache_dir.glob("*.json"))
    assert len(entries) == 3            # two modules + the project entry
    for entry in entries:
        intact = entry.read_bytes()
        damaged = [intact[:n] for n in range(len(intact))]
        damaged += [w.encode() for w in WRONG_SHAPES]
        for blob in damaged:
            entry.write_bytes(blob)
            report = run(root, None, cache=DiskCache(cache_dir))
            assert rendered(report) == expected
            assert entry.read_bytes() == intact
            assert report.cache_hits + report.cache_misses == 2


# -- the fixture corpora with goldens ----------------------------------------

@pytest.mark.parametrize("corpus, select", [
    ("check", None), ("comm", ["COMM"]), ("rep", ["REP"])])
def test_cold_and_warm_runs_equal_the_goldens(corpus, select, tmp_path):
    fixtures = TESTS / "fixtures" / corpus
    golden = ((TESTS / "goldens" / f"{corpus}_fixture.json").read_text(),
              (TESTS / "goldens" / f"{corpus}_fixture.sarif").read_text())
    only = expand_rule_prefixes(select) if select else ()
    cold, warm = (Analyzer(only=only).run(fixtures, rel_base=fixtures,
                                          cache=DiskCache(tmp_path))
                  for _ in range(2))
    assert rendered(cold) == golden and rendered(warm) == golden
    assert cold.cache_hits == 0 and warm.cache_misses == 0
    assert warm.cache_hits == cold.cache_misses


# -- what a run may cost, as counts ------------------------------------------

COUNTING = r"""
import ast, collections, json, sys
from pathlib import Path

calls = collections.Counter()
walked, generator_walks = collections.Counter(), collections.Counter()

def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

real_walk = ast.walk
def walk(node):
    if isinstance(node, ast.Module):
        walked[id(node)] += 1
    return real_walk(node)
ast.walk = walk
ast.parse = counted("parse", ast.parse)   # after pytest-free imports only

from repro.check import engine, protocol
from repro.check.rules import RULE_CLASSES, comm
from repro.exec import DiskCache

engine.build_registry = counted("registry", engine.build_registry)
comm.analyze_modules = counted("replays", comm.analyze_modules)
for cls in RULE_CLASSES:
    if "prepare" in vars(cls):
        cls.prepare = counted("prepare", cls.prepare)
real_direct_body = protocol.iter_direct_body   # _is_generator's walk
def direct_body(fn, skip):
    generator_walks[id(fn)] += 1
    return real_direct_body(fn, skip)
protocol.iter_direct_body = direct_body

root, cache_dir = Path(sys.argv[1]), Path(sys.argv[2])

def run(cache):
    calls.clear(); walked.clear(); generator_walks.clear()
    report = engine.Analyzer().run(root, rel_base=root, cache=cache)
    return {"calls": dict(calls), "hits": report.cache_hits,
            "misses": report.cache_misses, "files": report.files_checked,
            "max_module_walks": max(walked.values(), default=0),
            "modules_walked": len(walked),
            "max_generator_walks": max(generator_walks.values(), default=0),
            "defs_asked": len(generator_walks)}

out = {"cold": run(DiskCache(cache_dir)), "warm": run(DiskCache(cache_dir))}
with (root / "chk" / "apps" / "allowed.py").open("a") as f:
    f.write("\nX = 1\n")
out["edited"] = run(DiskCache(cache_dir))
out["uncached"] = run(None)
print(json.dumps(out))
"""


def test_count_guards_in_a_fresh_interpreter(tmp_path):
    """Noise-free versions of the benchmark's claims: a warm run parses
    and prepares nothing, a one-file edit re-runs the project rules
    once and one module, an uncached run walks each module once."""
    root = tmp_path / "tree"
    for corpus in ("check", "comm", "rep"):
        # not "check/": UNIT, COMM and REP skip the analyser's own code
        shutil.copytree(TESTS / "fixtures" / corpus,
                        root / corpus.replace("check", "chk"))
    proc = subprocess.run(
        [sys.executable, "-c", COUNTING, str(root), str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    files = got["cold"]["files"]
    assert files == len(list(root.rglob("*.py"))) > 20

    assert got["warm"]["calls"] == {}
    assert (got["warm"]["hits"], got["warm"]["misses"]) == (files, 0)
    assert got["warm"]["modules_walked"] == 0

    assert (got["cold"]["hits"], got["cold"]["misses"]) == (0, files)
    assert (got["edited"]["hits"], got["edited"]["misses"]) == (files - 1, 1)
    for name in ("cold", "edited", "uncached"):
        counts = got[name]["calls"]
        assert counts["parse"] == files, name
        assert counts["registry"] == counts["replays"] == 1, name
        assert got[name]["max_module_walks"] == 1, name
        assert got[name]["max_generator_walks"] == 1, name
        assert got[name]["defs_asked"] > 10, name
    assert got["uncached"]["modules_walked"] == files
