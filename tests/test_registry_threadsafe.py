"""Shared-state safety of the suite registry under the parallel engine:
the module-level default suite and the per-suite instance cache are
hammered from 8 threads and must never duplicate, lose, or corrupt
state -- including when ``get()`` is what first imports a benchmark's
module."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro.core.suite as suite_module
from repro.core import JupiterBenchmarkSuite, load_suite
from repro.core.registry import IMPLEMENTATIONS

THREADS = 8
#: the table lists the 16 applications first, then the 7 synthetics
APPS, SYNTHETIC = list(IMPLEMENTATIONS)[:16], list(IMPLEMENTATIONS)[16:]


def hammer(fn, n_threads=THREADS, repeats=1):
    """Run ``fn(thread_index)`` concurrently with a start barrier."""
    barrier = threading.Barrier(n_threads)
    results = []

    def worker(i):
        barrier.wait()
        out = [fn(i) for _ in range(repeats)]
        return out

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for future in [pool.submit(worker, i) for i in range(n_threads)]:
            results.extend(future.result())
    return results


class TestDefaultSuiteRace:
    def test_concurrent_first_load_builds_one_suite(self):
        saved = suite_module._DEFAULT
        suite_module._DEFAULT = None
        try:
            suites = hammer(lambda i: load_suite())
            assert len({id(s) for s in suites}) == 1
            assert len(suites[0].names()) == 23
        finally:
            suite_module._DEFAULT = saved

    def test_no_partially_registered_suite_observable(self):
        # every load_suite() caller must see the fully populated registry
        saved = suite_module._DEFAULT
        suite_module._DEFAULT = None
        try:
            counts = hammer(lambda i: len(load_suite().names()))
            assert set(counts) == {23}
        finally:
            suite_module._DEFAULT = saved


class TestInstanceCacheRace:
    def test_get_yields_one_instance_per_name(self):
        suite = JupiterBenchmarkSuite()
        suite.register_implementations()
        names = suite.names()

        def fetch(i):
            return [id(suite.get(name)) for name in names]

        id_lists = hammer(fetch, repeats=3)
        # every thread, every repeat: the exact same instance per name
        assert len({tuple(ids) for ids in id_lists}) == 1

    def test_concurrent_register_and_lookup(self):
        suite = JupiterBenchmarkSuite()
        suite.register_implementations(SYNTHETIC)

        def churn(i):
            if i % 2 == 0:
                suite.register_implementations(APPS)   # idempotent
                return None
            return len(suite.names())        # must never see torn state

        counts = [c for c in hammer(churn, repeats=5) if c is not None]
        assert all(7 <= c <= 23 for c in counts)
        assert len(suite.names()) == 23

    def test_parallel_runs_stay_deterministic(self):
        suite = JupiterBenchmarkSuite()
        suite.register_implementations()
        foms = hammer(lambda i: suite.run("STREAM").fom_seconds,
                      repeats=2)
        assert len(set(foms)) == 1


#: Runs in a fresh interpreter, where no benchmark module is imported
#: yet: every thread starts on a different name and walks all eight, so
#: first imports (under the suite lock) race with lookups of every
#: other name.
LAZY_IMPORT_HAMMER = """
import sys, threading
from repro.core.registry import IMPLEMENTATIONS
from repro.core.suite import JupiterBenchmarkSuite

names = ["Amber", "Arbor", "ICON", "JUQCS", "nekRS", "HPL", "OSU", "STREAM"]
targets = {n: IMPLEMENTATIONS[n].partition(":") for n in names}
assert not any(t[0] in sys.modules for t in targets.values())
suite = JupiterBenchmarkSuite()
suite.register_implementations()
barrier = threading.Barrier(len(names))
seen, errors = {}, []

def worker(i):
    try:
        barrier.wait(timeout=30)
        mine = {}
        for k in range(len(names)):
            name = names[(i + k) % len(names)]
            bench = suite.get(name)
            module = sys.modules[targets[name][0]]
            assert not getattr(module.__spec__, "_initializing", False)
            assert type(bench) is getattr(module, targets[name][2])
            assert bench.info.name == name
            mine[name] = id(bench)
        seen[i] = mine
    except BaseException as exc:
        errors.append(repr(exc))
        raise

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(names))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "hammer hung"
finally:
    sys.setswitchinterval(interval)
assert not errors, errors
assert len(seen) == len(names)
assert all(ids == seen[0] for ids in seen.values()), seen
print("one instance per name")
"""


class TestLazyImportRace:
    def test_first_get_of_unimported_benchmarks_from_8_threads(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_HAMMER],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "one instance per name"
