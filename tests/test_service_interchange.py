"""Deterministic interchange tests: fairness, admission, endpoint death.

The control plane runs on a virtual clock, so every schedule here is a
pure function of (submissions, endpoint layout, fault plan):

* a seeded 8-client x 2-endpoint hammer whose dispatch log and
  canonical result export are **byte-reproducible** across reruns,
* fair-share ordering (a 1-task client is served within one cycle of
  an N-task client, never starved behind it),
* admission control (per-client backlog cap -> explicit ``rejected``
  result recorded in the store, plus client-side retry after drain),
* endpoint death mid-flight (fault-plan driven): lease expiry requeues
  the dead endpoint's envelopes and every task completes elsewhere
  with zero lost and zero duplicated results.
"""

import random

import pytest

from repro.core.benchmark import BenchmarkResult
from repro.exec.cache import result_key
from repro.faults.plan import FaultPlan, NodeFault
from repro.service import (
    BenchmarkService,
    CancelledError,
    Capabilities,
    LeaseTable,
    LocalEndpoint,
    RejectedError,
    ResultEnvelope,
    ServiceClient,
    ServiceError,
    ServiceFuture,
    TaskEnvelope,
)
from repro.telemetry import ManualClock

SEED = 0x5E21CE


class FakeSuite:
    """Deterministic stand-in: FOM is a pure function of the request."""

    def run_key(self, name, nodes=None, *, variant=None, scale=1.0,
                real=False):
        return result_key(name, {"nodes": nodes or 4, "scale": scale,
                                 "real": real,
                                 "variant": variant.value
                                 if variant else None})

    def run(self, name, nodes=None, *, variant=None, scale=1.0,
            real=False):
        return BenchmarkResult(benchmark=name, nodes=nodes or 4,
                               fom_seconds=1.0 + (len(name) % 7) * 0.25
                               + scale)


def _service(**kwargs) -> BenchmarkService:
    kwargs.setdefault("clock", ManualClock())
    return BenchmarkService(**kwargs)


def _endpoint(eid: str, workers: int = 1,
              benchmarks: tuple = ()) -> LocalEndpoint:
    return LocalEndpoint(
        eid, suite=FakeSuite(),
        capabilities=Capabilities(workers=workers, benchmarks=benchmarks))


def _hammer(seed: int = SEED):
    """The seeded 8-client x 2-endpoint hammer; returns the service
    and the futures in submission order."""
    rng = random.Random(seed)
    service = _service(max_backlog=32)
    service.register_endpoint(_endpoint("ep0", workers=2))
    service.register_endpoint(_endpoint("ep1", workers=1))
    suite = FakeSuite()
    clients = [ServiceClient(service, f"client{i}", suite=suite)
               for i in range(8)]
    futures = []
    for _ in range(40):
        client = clients[rng.randrange(len(clients))]
        name = rng.choice(["Alpha", "Beta", "Gamma", "Delta"])
        futures.append(client.submit(name,
                                     scale=1.0 + rng.randrange(4) * 0.5))
    service.drain()
    return service, futures


class TestHammerDeterminism:
    def test_everything_completes(self):
        service, futures = _hammer()
        assert all(f.status == "ok" for f in futures)
        assert service.store.counts() == {"ok": len(futures)}

    def test_schedule_byte_reproducible_across_reruns(self):
        first, _ = _hammer()
        second, _ = _hammer()
        assert first.log_json().encode() == second.log_json().encode()
        assert first.store.canonical_export().encode() == \
            second.store.canonical_export().encode()

    def test_different_seed_different_schedule(self):
        first, _ = _hammer()
        other, _ = _hammer(seed=SEED + 1)
        assert first.log_json() != other.log_json()

    def test_export_independent_of_endpoint_layout(self):
        wide, _ = _hammer()
        rng = random.Random(SEED)
        narrow = _service(max_backlog=32)
        narrow.register_endpoint(_endpoint("solo", workers=1))
        suite = FakeSuite()
        clients = [ServiceClient(narrow, f"client{i}", suite=suite)
                   for i in range(8)]
        for _ in range(40):
            client = clients[rng.randrange(len(clients))]
            name = rng.choice(["Alpha", "Beta", "Gamma", "Delta"])
            client.submit(name, scale=1.0 + rng.randrange(4) * 0.5)
        narrow.drain()
        assert narrow.store.canonical_export() == \
            wide.store.canonical_export()


class TestFairShare:
    def test_small_client_not_starved_by_large_one(self):
        service = _service(max_backlog=32)
        service.register_endpoint(_endpoint("ep0", workers=1))
        suite = FakeSuite()
        hog = ServiceClient(service, "hog", suite=suite)
        mouse = ServiceClient(service, "mouse", suite=suite)
        hog_futures = [hog.submit("Alpha", label=f"hog{i}")
                       for i in range(6)]
        mouse_future = mouse.submit("Beta")
        service.drain()
        dispatches = [e for e in service.dispatch_log
                      if e["event"] == "dispatch"]
        order = [e["client"] for e in dispatches]
        # the mouse's single task is served in the first two cycles,
        # not behind the hog's whole queue
        assert order.index("mouse") <= 2
        assert all(f.status == "ok" for f in hog_futures + [mouse_future])

    def test_round_robin_cycles_clients_in_sorted_order(self):
        service = _service(max_backlog=32)
        service.register_endpoint(_endpoint("ep0", workers=1))
        suite = FakeSuite()
        for cid in ("b", "a", "c"):  # registration order != sorted
            ServiceClient(service, cid, suite=suite).submit(
                "Alpha", label=f"task-{cid}")
        service.drain()
        order = [e["client"] for e in service.dispatch_log
                 if e["event"] == "dispatch"]
        assert order == ["a", "b", "c"]


class TestAdmissionControl:
    def test_backlog_cap_rejects_explicitly(self):
        service = _service(max_backlog=2)
        service.register_endpoint(_endpoint("ep0"))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        futures = [client.submit("Alpha", label=f"t{i}") for i in range(3)]
        assert [f.status for f in futures[:2]] == [None, None]
        assert futures[2].status == "rejected"
        with pytest.raises(RejectedError, match="backlog full"):
            futures[2].result()
        # the rejection is recorded, never silently dropped
        rejected = [r for r in service.store.records
                    if r.status == "rejected"]
        assert len(rejected) == 1
        assert "cap 2" in rejected[0].error
        service.drain()
        assert [f.status for f in futures] == ["ok", "ok", "rejected"]

    def test_client_retry_after_drain_succeeds(self):
        service = _service(max_backlog=1)
        service.register_endpoint(_endpoint("ep0"))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        first = client.submit("Alpha", label="first")
        envelope = client.make_envelope("Alpha", label="second")
        assert client.submit_envelope(envelope).status == "rejected"
        # stepping the service drains the backlog, so the same
        # envelope is admitted when it is resubmitted
        service.step()
        second = service.submit(envelope)
        assert second.status != "rejected"
        service.drain()
        assert first.status == "ok" and second.status == "ok"
        # the journalled store keeps the full history: the bounce and
        # the eventual completion of the same task id
        statuses = [r.status for r in service.store.records
                    if r.task_id == second.task_id]
        assert statuses == ["rejected", "ok"]

    def test_resubmission_is_idempotent(self):
        service = _service()
        service.register_endpoint(_endpoint("ep0"))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        envelope = client.make_envelope("Alpha")
        first = service.submit(envelope)
        again = service.submit(envelope)
        assert again is first
        service.drain()
        assert service.submit(envelope) is first  # completed: same future
        assert service.store.counts() == {"ok": 1}

    def test_cancellation_before_dispatch(self):
        service = _service()
        service.register_endpoint(_endpoint("ep0"))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        keep = client.submit("Alpha", label="keep")
        drop = client.submit("Beta", label="drop")
        assert client.cancel(drop) is True
        assert drop.cancelled()
        with pytest.raises(CancelledError):
            drop.result()
        service.drain()
        assert keep.status == "ok"
        assert client.cancel(keep) is False  # already completed
        assert service.store.counts() == {"ok": 1, "cancelled": 1}


class TestEndpointDeath:
    def _crash_service(self, *, duration):
        plan = FaultPlan(nodes=(NodeFault(node=0, at=0.0,
                                          duration=duration),))
        service = _service(max_backlog=32, faults=plan)
        service.register_endpoint(_endpoint("doomed", workers=4))
        service.register_endpoint(_endpoint("survivor", workers=1))
        return service

    def test_death_mid_flight_requeues_without_loss(self):
        service = self._crash_service(duration=1000.0)
        client = ServiceClient(service, "c0", suite=FakeSuite())
        futures = [client.submit("Alpha", label=f"t{i}") for i in range(8)]
        service.drain()
        assert all(f.status == "ok" for f in futures)
        # zero lost: every task has exactly one ok record (no dups)
        ok_records = [r for r in service.store.records if r.status == "ok"]
        assert len(ok_records) == len(futures)
        assert len({r.task_id for r in ok_records}) == len(futures)
        # the doomed endpoint's lease lapsed and its envelopes requeued
        events = [e["event"] for e in service.dispatch_log]
        assert "lost" in events and "requeue" in events
        assert all(r.endpoint == "survivor" for r in ok_records)

    def test_lease_expiry_is_deterministic(self):
        service = self._crash_service(duration=1000.0)
        client = ServiceClient(service, "c0", suite=FakeSuite())
        client.submit("Alpha")
        service.drain()
        lost = [e for e in service.dispatch_log if e["event"] == "lost"]
        assert len(lost) == 1
        # the lease lapses strictly after threshold x period of silence
        assert lost[0]["at"] > service.leases.window

    def test_endpoint_restore_rejoins_service(self):
        service = self._crash_service(duration=30.0)
        client = ServiceClient(service, "c0", suite=FakeSuite())
        futures = [client.submit("Alpha", label=f"t{i}") for i in range(4)]
        service.drain()
        assert all(f.status == "ok" for f in futures)
        # the drain finished (t=20) inside the 30 s crash window; once
        # the window closes, the next round restores the endpoint
        service.clock.advance(60.0)
        service.pump()
        events = [e["event"] for e in service.dispatch_log]
        assert "crash" in events and "restore" in events
        assert service.endpoints()["doomed"]["lost"] is False
        late = client.submit("Beta")
        service.drain()
        assert late.status == "ok"
        assert service.store.final()[late.task_id].endpoint == "doomed"

    def test_all_endpoints_dead_fails_loudly(self):
        plan = FaultPlan(nodes=(NodeFault(node=0, at=0.0, duration=None),))
        service = _service(faults=plan)
        service.register_endpoint(_endpoint("doomed"))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        client.submit("Alpha")
        with pytest.raises(ServiceError, match="stalled"):
            service.drain()

    def test_no_capable_endpoint_fails_loudly(self):
        service = _service()
        service.register_endpoint(_endpoint("narrow",
                                            benchmarks=("OnlyThis",)))
        client = ServiceClient(service, "c0", suite=FakeSuite())
        client.submit("SomethingElse")
        with pytest.raises(ServiceError, match="stalled"):
            service.drain()


class TestLeaseTable:
    def test_expiry_boundary_is_strict(self):
        clock = ManualClock()
        leases = LeaseTable(clock, period=5.0, threshold=3)
        leases.register("ep")
        clock.advance(15.0)
        assert leases.expired() == []       # exactly the window: alive
        clock.advance(0.001)
        assert leases.expired() == ["ep"]   # past it: lost

    def test_beat_renews(self):
        clock = ManualClock()
        leases = LeaseTable(clock, period=1.0, threshold=2)
        leases.register("ep")
        for _ in range(10):
            clock.advance(1.0)
            leases.beat("ep")
        assert leases.expired() == []
        assert leases.deadline("ep") == clock() + leases.window

    def test_validation(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            LeaseTable(clock, period=0.0)
        with pytest.raises(ValueError):
            LeaseTable(clock, threshold=0)


class TestDuplicateGuard:
    def test_double_resolution_raises(self):
        env = TaskEnvelope(client="c", benchmark="b", key="k")
        future = ServiceFuture(env)
        result = ResultEnvelope(task_id=env.task_id, client="c",
                                benchmark="b", key="k", status="ok",
                                value=1.0)
        future.resolve(result)
        with pytest.raises(ServiceError, match="duplicate result"):
            future.resolve(result)

    def test_misrouted_result_raises(self):
        env = TaskEnvelope(client="c", benchmark="b", key="k")
        future = ServiceFuture(env)
        stray = ResultEnvelope(task_id="someone-else", client="c",
                               benchmark="b", key="k", status="ok",
                               value=1.0)
        with pytest.raises(ServiceError, match="routed"):
            future.resolve(stray)
