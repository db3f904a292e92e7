"""Integration tests for ``repro.faults`` across the stack.

The chaos harness promises three things (ISSUE acceptance criteria):

* **byte-determinism** -- the same fault seed yields a byte-identical
  canonical journal and chaos trace across cold runs *and* across
  worker counts;
* **resilience** -- injected faults within the retry budget converge,
  beyond it they degrade gracefully (explicit journal errors, skipped
  figure points) instead of aborting the sweep;
* **cross-layer reach** -- the same declarative plan drives the engine
  guard, the batch scheduler's node pool and the network model's
  bandwidths.
"""

import random
import time
from types import SimpleNamespace

import pytest

from repro.cluster import (
    Job,
    JobState,
    LinkClass,
    Scheduler,
    booster_network,
    juwels_booster,
)
from repro.core.scaling import strong_scaling, weak_scaling
from repro.exec import (
    BackoffPolicy,
    CircuitBreaker,
    ExecutionEngine,
    WorkItem,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    NodeFault,
    StragglerFault,
    TaskFaultRule,
    LinkFault,
    write_chaos_trace,
)
from repro.telemetry import ManualClock, Tracer
from repro.telemetry.schema import validate_event

SEED = 0x1A7E7


def _payload(v):
    """Module-level payload: pickles into process-pool workers."""
    return float(v)


def _chaos_run(workers: int):
    """A small fixed chaos recipe shared by the determinism tests."""
    plan = FaultPlan(seed=7, tasks=(
        TaskFaultRule(match="run:b", attempts=(1,)),
        TaskFaultRule(match="run:d", attempts=(1, 2, 3)),
    ))
    engine = ExecutionEngine(
        workers=workers, backend="thread", cache=None, retries=2,
        tracer=Tracer(clock=ManualClock(start=0.0, tick=0.25)),
        faults=FaultInjector(plan), backoff=BackoffPolicy(seed=plan.seed),
        breaker=CircuitBreaker())
    engine.map([WorkItem(fn=_payload, args=(float(i),), label=f"run:{c}")
                for i, c in enumerate("abcd")])
    return engine, plan


class TestByteDeterminism:
    def test_cold_runs_same_seed_identical_journal(self, tmp_path):
        paths = []
        for run in ("first", "second"):
            engine, _ = _chaos_run(workers=4)
            path = tmp_path / f"{run}.jsonl"
            engine.journal.canonical().to_jsonl(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_1_vs_8_identical_artifacts(self, tmp_path):
        blobs = {}
        for workers in (1, 8):
            engine, plan = _chaos_run(workers=workers)
            jpath = tmp_path / f"j{workers}.jsonl"
            engine.journal.canonical().to_jsonl(jpath)
            tpath = tmp_path / f"t{workers}.json"
            write_chaos_trace(tpath, engine.journal, plan)
            blobs[workers] = (jpath.read_bytes(), tpath.read_bytes())
        assert blobs[1] == blobs[8]

    def test_outcomes_match_plan_schedule(self):
        engine, plan = _chaos_run(workers=4)
        by_label = {r.label: r for r in engine.journal.records}
        assert by_label["run:a"].status == "ok"
        assert by_label["run:a"].attempts == 1
        assert by_label["run:b"].status == "ok"
        assert by_label["run:b"].attempts == 2  # recovered once
        # run:d fails attempts 1..3 but the budget is 2 retries
        assert by_label["run:d"].status == "error"
        assert by_label["run:d"].attempts == 3
        assert "InjectedFault" in by_label["run:d"].error
        assert plan.max_task_failures() == 3

    def test_process_backend_guard_pickles(self):
        plan = FaultPlan(tasks=(
            TaskFaultRule(match="run:proc", attempts=(1,)),))
        engine = ExecutionEngine(workers=2, backend="process", cache=None,
                                 retries=1, faults=FaultInjector(plan))
        out = engine.map([WorkItem(fn=_payload, args=(3.0,),
                                   label="run:proc")])
        assert out[0].ok and out[0].value == 3.0
        assert out[0].attempts == 2


class TestBackoff:
    def test_delay_is_pure_and_bounded(self):
        for i in range(40):
            rng = random.Random(SEED + i)
            policy = BackoffPolicy(base=rng.uniform(0.01, 1.0),
                                   factor=rng.uniform(1.0, 3.0),
                                   max_delay=rng.uniform(1.0, 10.0),
                                   jitter=rng.uniform(0.0, 1.0),
                                   seed=rng.randrange(2 ** 31))
            for attempt in (1, 2, 5):
                d1 = policy.delay("run:x", attempt)
                d2 = BackoffPolicy(**policy.__dict__).delay("run:x", attempt)
                assert d1 == d2, f"iteration {i}"
                raw = min(policy.base * policy.factor ** (attempt - 1),
                          policy.max_delay)
                lo = raw * (1 - policy.jitter / 2)
                hi = raw * (1 + policy.jitter / 2)
                assert lo <= d1 <= hi, f"iteration {i}"

    def test_no_jitter_is_plain_exponential(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=5.0,
                               jitter=0.0)
        assert [policy.delay("l", a) for a in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 5.0]

    def test_virtual_clock_advances_instead_of_sleeping(self):
        plan = FaultPlan(tasks=(TaskFaultRule(match="slow",
                                              attempts=(1,)),))
        engine = ExecutionEngine(
            workers=1, backend="thread", cache=None, retries=1,
            tracer=Tracer(clock=ManualClock(start=0.0, tick=0.25)),
            faults=FaultInjector(plan),
            backoff=BackoffPolicy(base=30.0, max_delay=30.0, jitter=0.0))
        wall = time.monotonic()
        out = engine.map([WorkItem(fn=_payload, args=(1.0,),
                                   label="slow")])
        wall = time.monotonic() - wall
        assert out[0].ok
        # a 30 s backoff consumed virtual, not wall, time
        assert wall < 5.0
        assert engine.tracer.now() >= 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_state_machine_direct(self):
        b = CircuitBreaker(threshold=2, cooldown=1)
        assert b.state("x") == "closed" and b.allow("x")
        b.record("x", False)
        assert b.state("x") == "closed"
        b.record("x", False)
        assert b.state("x") == "open" and not b.allow("x")
        b.block("x")  # one skip consumed -> half-open probe next
        assert b.state("x") == "half-open" and b.allow("x")
        b.record("x", False)  # probe fails -> re-open
        assert b.state("x") == "open"
        b.block("x")
        b.record("x", True)  # successful probe closes it
        assert b.state("x") == "closed"

    def test_engine_skips_open_circuit_and_recovers(self):
        # a stateful payload (fails twice, then heals) -- plan rules are
        # per-run attempt schedules, so cross-run breaker recovery needs
        # organic failures
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError(f"organic failure #{calls['n']}")
            return 1.0

        breaker = CircuitBreaker(threshold=2, cooldown=1)
        engine = ExecutionEngine(workers=1, backend="thread", cache=None,
                                 retries=0, breaker=breaker)
        item = WorkItem(fn=flaky, label="doom")
        first = engine.map([item])[0]   # failure 1
        second = engine.map([item])[0]  # failure 2 -> circuit opens
        assert not first.ok and not second.ok
        skipped = engine.map([item])[0]
        assert not skipped.ok
        assert skipped.attempts == 0
        assert "CircuitOpen" in skipped.error
        assert calls["n"] == 2  # the skip really skipped
        # half-open probe: the payload has healed, circuit closes
        probe = engine.map([item])[0]
        assert probe.ok and probe.value == 1.0
        assert breaker.state("doom") == "closed"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestSchedulerFaults:
    def test_straggler_window_stretches_payload(self):
        plan = FaultPlan(stragglers=(
            StragglerFault(node=0, factor=2.0, at=5.0, duration=1000.0),))
        s = Scheduler(juwels_booster().with_nodes(96),
                      faults=FaultInjector(plan))
        s.submit(Job("blocker", nodes=96, walltime=10))
        job = s.submit(Job(
            "stretched", nodes=96, walltime=50,
            run=lambda alloc: SimpleNamespace(seconds=20.0)))
        s.drain()
        # started at t=10 (after the slow window opened), 2x slower
        assert job.slowdown == 2.0
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(50.0)

    def test_straggler_can_push_job_over_walltime(self):
        plan = FaultPlan(stragglers=(
            StragglerFault(node=0, factor=2.0, at=5.0, duration=1000.0),))
        s = Scheduler(juwels_booster().with_nodes(96),
                      faults=FaultInjector(plan))
        s.submit(Job("blocker", nodes=96, walltime=10))
        job = s.submit(Job(
            "overrun", nodes=96, walltime=50,
            run=lambda alloc: SimpleNamespace(seconds=30.0)))
        s.drain()
        assert job.state is JobState.FAILED
        assert job.error == "walltime exceeded"

    def test_crash_requeue_completes_and_is_observed(self):
        plan = FaultPlan(nodes=(
            NodeFault(node=0, at=30.0, duration=20.0),))
        injector = FaultInjector(plan)
        tracer = Tracer(clock=ManualClock(start=0.0, tick=0.25))
        from repro.telemetry import use_tracer

        with use_tracer(tracer):
            s = Scheduler(juwels_booster().with_nodes(96), faults=injector)
            job = s.submit(Job("big", nodes=96, walltime=100))
            s.drain()
        assert job.state is JobState.COMPLETED
        assert job.requeues == 1
        events = [e for e in tracer.events() if e.get("type") == "fault"]
        assert [e["action"] for e in events] == ["crash", "restore"]
        assert all(e["category"] == "node" for e in events)
        for event in events:
            validate_event(event)


class TestNetworkDegradation:
    def test_link_factor_halves_inter_cell_bandwidth(self):
        plan = FaultPlan(links=(LinkFault(link="inter_cell", factor=0.5),))
        model = FaultInjector(plan).degradation()
        base = booster_network()
        degraded = base.degraded(model)
        assert degraded.link_bandwidth(LinkClass.INTER_CELL) == \
            pytest.approx(0.5 * base.link_bandwidth(LinkClass.INTER_CELL))
        # untouched link classes keep their bandwidth
        assert degraded.link_bandwidth(LinkClass.INTRA_NODE) == \
            pytest.approx(base.link_bandwidth(LinkClass.INTRA_NODE))
        assert degraded.link_bandwidth(LinkClass.SELF) == float("inf")

    def test_no_link_faults_no_model(self):
        assert FaultInjector(FaultPlan()).degradation() is None

    def test_degradation_slows_collectives(self):
        plan = FaultPlan(links=(LinkFault(link="*", factor=0.25),))
        base = booster_network()
        degraded = base.degraded(FaultInjector(plan).degradation())
        nodes = tuple(range(4))
        t0 = base.allreduce_time(nodes, 16, 1 << 20)
        t1 = degraded.allreduce_time(nodes, 16, 1 << 20)
        assert t1 > t0


class TestGracefulDegradation:
    def test_run_all_drops_failed_benchmark_but_journals_it(self):
        from repro.core import load_suite

        plan = FaultPlan(tasks=(
            TaskFaultRule(match="run:STREAM", attempts=(1, 2, 3, 4)),))
        engine = ExecutionEngine(workers=2, backend="thread", cache=None,
                                 retries=1, faults=FaultInjector(plan))
        suite = load_suite()
        prev = suite.engine
        suite.engine = engine
        try:
            results = suite.run_all(["STREAM", "HPL"])
        finally:
            suite.engine = prev
        assert [r.benchmark for r in results] == ["HPL"]
        failed = [r for r in engine.journal.records
                  if r.label == "run:STREAM"]
        assert len(failed) == 1
        assert failed[0].status == "error"
        assert "InjectedFault" in failed[0].error

    def test_strong_scaling_collects_failed_points(self):
        result = strong_scaling(
            "x", lambda n: float("nan") if n != 8 else 1.0,
            reference_nodes=8)
        assert result.failed  # every non-reference point failed
        assert [p.nodes for p in result.points] == [8]
        assert 8 not in result.failed

    def test_strong_scaling_failed_reference_raises(self):
        with pytest.raises(ValueError, match="reference point"):
            strong_scaling("x", lambda n: float("nan"), reference_nodes=8)

    def test_weak_scaling_baseline_skips_failed_smallest(self):
        runtimes = {4: float("nan"), 8: 2.0, 16: 3.0}
        result = weak_scaling("x", lambda n: runtimes[n], [4, 8, 16])
        assert result.failed == [4]
        assert [p.nodes for p in result.points] == [8, 16]

    def test_degrade_flag_defaults(self):
        assert ExecutionEngine(workers=1).degrade is False
        plan = FaultPlan()
        assert ExecutionEngine(workers=1,
                               faults=FaultInjector(plan)).degrade is True


class TestFaultTelemetry:
    def test_fault_events_validate_against_schema(self):
        engine, _ = _chaos_run(workers=4)
        events = [e for e in engine.tracer.events()
                  if e.get("type") == "fault"]
        assert events, "injected faults must surface as telemetry"
        for event in events:
            out = validate_event(event)
            assert out["category"] == "task"
            assert out["action"] == "inject"
        # one event per injected failure: run:b attempt 1 + run:d 1..3
        assert len(events) == 4

    def test_breaker_skip_emits_fault_event(self):
        plan = FaultPlan(tasks=(
            TaskFaultRule(match="doom", attempts=(1, 2)),))
        engine = ExecutionEngine(
            workers=1, backend="thread", cache=None, retries=0,
            faults=FaultInjector(plan),
            breaker=CircuitBreaker(threshold=2, cooldown=1))
        item = WorkItem(fn=_payload, args=(1.0,), label="doom")
        for _ in range(3):  # fail, fail -> open, skip
            engine.map([item])
        skips = [e for e in engine.tracer.events()
                 if e.get("type") == "fault"
                 and e.get("category") == "breaker"]
        assert len(skips) == 1
        assert skips[0]["action"] == "skip"
        validate_event(skips[0])
