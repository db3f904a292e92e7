"""Unit tests of the parallel execution engine (repro.exec.engine):
backend equivalence, deterministic ordering, fault boundary, caching
hooks and the run journal."""

import time

import pytest

from repro.exec import (
    EngineError,
    ExecutionEngine,
    MemoryCache,
    TaskTimeout,
    WorkItem,
)


def square(x):
    return x * x


def boom():
    raise ValueError("kaput")


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            ExecutionEngine(backend="gpu")
        with pytest.raises(ValueError):
            ExecutionEngine(retries=-1)

    def test_single_worker_degrades_to_serial(self):
        assert ExecutionEngine(workers=1, backend="thread").backend == \
            "serial"
        assert ExecutionEngine(workers=2, backend="thread").backend == \
            "thread"


class TestOrdering:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 4), ("process", 2),
    ])
    def test_submission_order_preserved(self, backend, workers):
        items = [WorkItem(fn=square, args=(i,)) for i in range(12)]
        engine = ExecutionEngine(workers=workers, backend=backend)
        assert engine.run(items) == [i * i for i in range(12)]

    def test_order_independent_of_completion_time(self):
        # earlier tasks finish *last*: ordering must not follow completion
        def staggered(i):
            time.sleep(0.002 * (8 - i))
            return i

        items = [WorkItem(fn=staggered, args=(i,), label=f"t{i}")
                 for i in range(8)]
        out = ExecutionEngine(workers=8).map(items)
        assert [o.value for o in out] == list(range(8))
        assert [o.index for o in out] == list(range(8))

    def test_parallel_matches_serial(self):
        items = [WorkItem(fn=square, args=(i,)) for i in range(20)]
        serial = ExecutionEngine(workers=1).run(items)
        parallel = ExecutionEngine(workers=8).run(items)
        assert serial == parallel


class TestFaultBoundary:
    def test_map_captures_errors_and_siblings_complete(self):
        items = [WorkItem(fn=square, args=(1,)),
                 WorkItem(fn=boom, label="bad"),
                 WorkItem(fn=square, args=(3,))]
        out = ExecutionEngine(workers=4).map(items)
        assert [o.ok for o in out] == [True, False, True]
        assert out[0].value == 1 and out[2].value == 9
        assert "ValueError: kaput" in out[1].error
        assert isinstance(out[1].exception, ValueError)

    def test_run_reraises_original_exception(self):
        items = [WorkItem(fn=boom)]
        with pytest.raises(ValueError, match="kaput"):
            ExecutionEngine(workers=4).run(items)

    def test_per_item_override_beats_engine_default(self):
        calls = []

        def flaky_once():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first attempt fails")
            return "ok"

        # engine default: no retries; the item allows one
        engine = ExecutionEngine(workers=1, retries=0)
        out = engine.map([WorkItem(fn=flaky_once, retries=1)])
        assert out[0].ok and out[0].attempts == 2

    def test_timeout_marks_task_failed(self):
        def slow():
            time.sleep(0.05)
            return 1

        out = ExecutionEngine(workers=2).map(
            [WorkItem(fn=slow, timeout=0.005)])
        assert not out[0].ok
        assert "TaskTimeout" in out[0].error
        assert isinstance(out[0].exception, TaskTimeout)


class TestCachingAndJournal:
    def test_cached_item_not_reexecuted(self):
        cache, calls = MemoryCache(), []

        def work(i):
            calls.append(i)
            return i + 10

        engine = ExecutionEngine(workers=4, cache=cache)
        items = [WorkItem(fn=work, args=(i,), key=f"k{i}") for i in range(5)]
        assert engine.run(items) == [10, 11, 12, 13, 14]
        assert engine.run(items) == [10, 11, 12, 13, 14]
        assert len(calls) == 5                      # second pass: all hits
        assert cache.stats.hits == 5
        assert cache.stats.misses == 5

    def test_keyless_items_bypass_cache(self):
        cache, calls = MemoryCache(), []

        def work():
            calls.append(1)
            return 1

        engine = ExecutionEngine(workers=1, cache=cache)
        engine.run([WorkItem(fn=work)])
        engine.run([WorkItem(fn=work)])
        assert len(calls) == 2 and len(cache) == 0

    def test_failed_items_never_cached(self):
        cache = MemoryCache()
        engine = ExecutionEngine(workers=1, cache=cache)
        out = engine.map([WorkItem(fn=boom, key="bad")])
        assert not out[0].ok and len(cache) == 0
        assert out[0].cache == "miss"

    def test_encode_decode_roundtrip(self):
        cache = MemoryCache()
        engine = ExecutionEngine(workers=1, cache=cache)
        item = WorkItem(fn=lambda: {"fom": 3.5}, key="k",
                        encode=lambda v: [v["fom"]],
                        decode=lambda raw: {"fom": raw[0]})
        assert engine.run([item]) == [{"fom": 3.5}]
        assert cache.get("k") == (True, [3.5])      # encoded at rest
        assert engine.run([item]) == [{"fom": 3.5}]  # decoded on hit

    def test_journal_records_everything(self):
        engine = ExecutionEngine(workers=4, cache=MemoryCache())
        journal = engine.journal
        items = [WorkItem(fn=square, args=(i,), key=f"k{i}",
                          label=f"sq{i}") for i in range(3)]
        engine.run(items)
        engine.run(items)
        engine.map([WorkItem(fn=boom, label="bad")])
        stats = journal.stats()
        assert stats.tasks == 7
        assert stats.cache_hits == 3
        assert stats.executed == 4                  # 3 cold + 1 failure
        assert stats.errors == 1
        summary = journal.summary()
        assert "sq0" in summary and "cache=hit" in summary
        assert "error" in summary

    def test_journal_indices_stable_under_parallelism(self):
        engine = ExecutionEngine(workers=8)
        journal = engine.journal
        engine.map([WorkItem(fn=square, args=(i,)) for i in range(16)])
        assert [r.index for r in journal.records] == list(range(16))
