"""Drop-in equivalence of the parallel + incremental engine.

The acceptance bar of the execution-engine PR: running the full
registered suite and the Fig. 2 / Fig. 3 study drivers with
``workers=8`` must produce *bit-identical* FOM/time-metric results (in
values and order) to ``workers=1``, and a warm-cache rerun must perform
zero benchmark executions (verified through cache + journal
statistics)."""

import pytest

from repro.core import MemoryVariant, load_suite
from repro.exec import DiskCache, ExecutionEngine, MemoryCache


@pytest.fixture()
def suite():
    s = load_suite()
    s.engine = None
    yield s
    s.engine = None     # never leak an engine into the shared default


def foms(results):
    return [(r.benchmark, r.fom_seconds) for r in results]


class TestRunAllEquivalence:
    def test_workers8_bit_identical_to_workers1(self, suite):
        sequential = suite.run_all()                  # engine-less path
        suite.engine = ExecutionEngine(workers=1)
        serial_engine = suite.run_all()
        suite.engine = ExecutionEngine(workers=8)
        parallel = suite.run_all()
        assert foms(parallel) == foms(sequential)
        assert foms(parallel) == foms(serial_engine)
        assert [r.benchmark for r in parallel] == suite.names()

    def test_warm_cache_rerun_executes_nothing(self, suite):
        cache = MemoryCache()
        n = len(suite.names())
        suite.engine = ExecutionEngine(workers=8, cache=cache)
        cold = suite.run_all()
        assert cache.stats.misses == n and cache.stats.hits == 0
        # fresh engine + journal over the same cache isolates the rerun
        suite.engine = ExecutionEngine(workers=8, cache=cache)
        warm = suite.run_all()
        assert foms(warm) == foms(cold)               # bit-identical
        assert cache.stats.hits == n
        assert cache.stats.misses == n                # no new misses
        stats = suite.engine.journal.stats()
        assert stats.executed == 0                    # zero executions
        assert stats.cache_hits == n

    def test_process_backend_matches_sequential(self, suite):
        # bound-method workunits must survive pickling to pool workers
        names = ["SOMA", "MMoCLIP", "HPCG", "OSU", "STREAM"]
        sequential = suite.run_all(names)
        suite.engine = ExecutionEngine(workers=2, backend="process")
        parallel = suite.run_all(names)
        assert foms(parallel) == foms(sequential)

    def test_disk_cache_cold_vs_warm(self, suite, tmp_path):
        names = ["Arbor", "JUQCS", "HPL", "STREAM"]
        suite.engine = ExecutionEngine(workers=4,
                                       cache=DiskCache(tmp_path))
        cold = suite.run_all(names)
        # a separate process would reopen the directory the same way
        suite.engine = ExecutionEngine(workers=4,
                                       cache=DiskCache(tmp_path))
        warm = suite.run_all(names)
        assert foms(warm) == foms(cold)
        assert suite.engine.cache.stats.hits == len(names)
        assert suite.engine.journal.stats().executed == 0


class TestStudyEquivalence:
    """Fig. 2 / Fig. 3 drivers: parallel node sweeps match sequential."""

    FIG2 = (("Arbor", False), ("Chroma-QCD", True), ("JUQCS", True),
            ("NAStJA", False))

    def test_strong_scaling_workers8(self, suite):
        for name, pow2 in self.FIG2:
            reference = suite.strong_scaling_study(name,
                                                   power_of_two=pow2)
            suite.engine = ExecutionEngine(workers=8)
            parallel = suite.strong_scaling_study(name, power_of_two=pow2)
            suite.engine = None
            assert [(p.nodes, p.runtime) for p in parallel.points] == \
                [(p.nodes, p.runtime) for p in reference.points]
            assert parallel.reference.runtime == reference.reference.runtime

    def test_weak_scaling_workers8(self, suite):
        nodes = (1, 2, 4, 8)
        reference = suite.weak_scaling_study(
            "PIConGPU", nodes, variant=MemoryVariant.SMALL)
        suite.engine = ExecutionEngine(workers=8)
        parallel = suite.weak_scaling_study(
            "PIConGPU", nodes, variant=MemoryVariant.SMALL)
        assert [(p.nodes, p.runtime) for p in parallel.points] == \
            [(p.nodes, p.runtime) for p in reference.points]

    def test_study_cold_vs_warm_cache(self, suite):
        cache = MemoryCache()
        suite.engine = ExecutionEngine(workers=8, cache=cache)
        cold = suite.strong_scaling_study("Arbor")
        n_points = len(cold.points)
        assert cache.stats.misses == n_points
        suite.engine = ExecutionEngine(workers=8, cache=cache)
        warm = suite.strong_scaling_study("Arbor")
        assert [(p.nodes, p.runtime) for p in warm.points] == \
            [(p.nodes, p.runtime) for p in cold.points]
        assert cache.stats.hits == n_points
        assert suite.engine.journal.stats().executed == 0

    def test_scaling_and_run_keys_do_not_collide(self, suite):
        # a cached full result must never answer a FOM-point lookup
        assert suite.run_key("Arbor", 8) != \
            suite.run_key("Arbor", 8, kind="strong-fom")
