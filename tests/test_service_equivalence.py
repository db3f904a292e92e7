"""Differential suite: the service path is a no-op for results.

Mirror of ``test_exec_equivalence.py`` one layer up: a fig2-shaped
batch of benchmark executions submitted through the
:class:`repro.service.BenchmarkService` control plane must produce a
canonical result export **byte-identical** to the direct
``repro.exec`` path (:func:`repro.service.execute_direct`) -- across
endpoint worker counts (1 vs 8), cache temperature (cold vs warm),
endpoint layouts, and fault-plan-driven endpoint death.  The CLI
loopback (``jubench submit`` -> ``jubench serve``) is held to the same
byte-identity bar via ``main(argv)``.
"""

import pytest

from repro.cli import main
from repro.core import load_suite
from repro.exec import ExecutionEngine, MemoryCache
from repro.faults.plan import FaultPlan, NodeFault
from repro.service import (
    BenchmarkService,
    Capabilities,
    LocalEndpoint,
    ResultStore,
    ServiceClient,
    execute_direct,
)

#: fig2-shaped batch: Base apps at reference nodes plus node sweeps
FIG2_BATCH = (
    ("Arbor", None), ("Arbor", 8), ("Arbor", 16),
    ("JUQCS", None), ("JUQCS", 32),
    ("HPL", None), ("HPL", 8),
    ("STREAM", None),
)


@pytest.fixture()
def suite():
    s = load_suite()
    s.engine = None
    yield s
    s.engine = None     # never leak an engine into the shared default


def _envelopes(suite, client_id="fig2"):
    client = ServiceClient(None, client_id, suite=suite)
    return [client.make_envelope(name, nodes=nodes)
            for name, nodes in FIG2_BATCH]


def _serve(suite, envelopes, *, endpoints=2, workers=1, cache=None,
           faults=None) -> BenchmarkService:
    service = BenchmarkService(faults=faults)
    for i in range(endpoints):
        engine = ExecutionEngine(workers=workers, backend="thread",
                                 cache=cache)
        service.register_endpoint(LocalEndpoint(
            f"ep{i}", suite=suite, engine=engine,
            capabilities=Capabilities(workers=workers)))
    for env in envelopes:
        service.submit(env)
    service.drain()
    return service


class TestServiceVsDirect:
    def test_export_byte_identical_to_direct_path(self, suite):
        envelopes = _envelopes(suite)
        service = _serve(suite, envelopes)
        direct = execute_direct(envelopes, suite=suite)
        assert service.store.canonical_export().encode() == \
            direct.canonical_export().encode()
        assert service.store.counts() == {"ok": len(envelopes)}

    def test_workers_1_vs_8_identical(self, suite):
        envelopes = _envelopes(suite)
        narrow = _serve(suite, envelopes, workers=1)
        wide = _serve(suite, envelopes, workers=8)
        assert narrow.store.canonical_export().encode() == \
            wide.store.canonical_export().encode()

    def test_cold_vs_warm_cache_identical_and_execution_free(self, suite):
        envelopes = _envelopes(suite)
        cache = MemoryCache()
        cold = _serve(suite, envelopes, endpoints=1, workers=4,
                      cache=cache)
        assert cache.stats.misses == len(envelopes)
        warm_engine = ExecutionEngine(workers=4, backend="thread",
                                      cache=cache)
        warm = BenchmarkService()
        warm.register_endpoint(LocalEndpoint(
            "warm", suite=suite, engine=warm_engine,
            capabilities=Capabilities(workers=4)))
        for env in envelopes:
            warm.submit(env)
        warm.drain()
        assert warm.store.canonical_export() == \
            cold.store.canonical_export()
        assert cache.stats.hits == len(envelopes)
        assert warm_engine.journal.stats().executed == 0
        # provenance records the temperature even though the canonical
        # export ignores it
        assert all(r.cache == "hit" for r in warm.store.records)

    def test_decoded_future_matches_plain_suite_run(self, suite):
        service = BenchmarkService()
        service.register_endpoint(LocalEndpoint("ep0", suite=suite))
        client = ServiceClient(service, "c0", suite=suite)
        future = client.submit("Arbor", nodes=8)
        result = future.result()
        reference = suite.run("Arbor", 8)
        assert result.benchmark == reference.benchmark
        assert result.nodes == reference.nodes
        assert result.fom_seconds == reference.fom_seconds

    def test_endpoint_death_does_not_change_the_export(self, suite):
        envelopes = _envelopes(suite)
        plan = FaultPlan(nodes=(NodeFault(node=0, at=0.0,
                                          duration=1000.0),))
        faulty = _serve(suite, envelopes, endpoints=2, workers=4,
                        faults=plan)
        direct = execute_direct(envelopes, suite=suite)
        assert faulty.store.canonical_export().encode() == \
            direct.canonical_export().encode()
        # the crash really happened: work was requeued off endpoint 0
        events = [e["event"] for e in faulty.dispatch_log]
        assert "lost" in events and "requeue" in events
        ok_records = [r for r in faulty.store.records if r.status == "ok"]
        assert len(ok_records) == len(envelopes)          # zero lost
        assert len({r.task_id for r in ok_records}) == \
            len(envelopes)                                # zero dups

    def test_durable_store_reloads_byte_identical(self, suite, tmp_path):
        envelopes = _envelopes(suite)
        path = tmp_path / "results.jsonl"
        service = BenchmarkService(store=ResultStore(path))
        service.register_endpoint(LocalEndpoint("ep0", suite=suite))
        for env in envelopes:
            service.submit(env)
        service.drain()
        reloaded = ResultStore.open(path)
        assert reloaded.canonical_export() == \
            service.store.canonical_export()
        assert reloaded.counts() == {"ok": len(envelopes)}


class TestCliLoopback:
    """``jubench submit`` -> ``jubench serve`` equals the direct path."""

    BENCHMARKS = "Arbor,HPL,STREAM"

    def test_loopback_export_byte_identical(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        svc_export = tmp_path / "svc.json"
        direct_export = tmp_path / "direct.json"
        assert main(["submit", "--spool", str(spool),
                     "--benchmarks", self.BENCHMARKS]) == 0
        assert main(["serve", "--spool", str(spool), "--endpoints", "2",
                     "--export", str(svc_export)]) == 0
        assert main(["submit", "--direct", "--benchmarks",
                     self.BENCHMARKS, "--export",
                     str(direct_export)]) == 0
        capsys.readouterr()
        assert svc_export.read_bytes() == direct_export.read_bytes()

    def test_loopback_survives_endpoint_crash(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        plan_path = tmp_path / "plan.json"
        FaultPlan(nodes=(NodeFault(node=0, at=0.0,
                                   duration=1000.0),)).save(plan_path)
        svc_export = tmp_path / "svc.json"
        direct_export = tmp_path / "direct.json"
        assert main(["submit", "--spool", str(spool),
                     "--benchmarks", self.BENCHMARKS]) == 0
        assert main(["serve", "--spool", str(spool), "--endpoints", "2",
                     "--faults", str(plan_path),
                     "--export", str(svc_export)]) == 0
        assert main(["submit", "--direct", "--benchmarks",
                     self.BENCHMARKS, "--export",
                     str(direct_export)]) == 0
        capsys.readouterr()
        assert svc_export.read_bytes() == direct_export.read_bytes()

    def test_serve_dispatch_log_reproducible(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert main(["submit", "--spool", str(spool),
                     "--benchmarks", self.BENCHMARKS]) == 0
        logs = []
        for run in ("first", "second"):
            log_path = tmp_path / f"{run}.json"
            assert main(["serve", "--spool", str(spool),
                         "--dispatch-log", str(log_path)]) == 0
            logs.append(log_path.read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]
