"""Fault-boundary tests: a benchmark stub that fails N times then
succeeds exercises the retry/timeout paths, and a permanently failing
work item degrades a ``map`` instead of aborting its siblings."""

import threading
import time

from repro.exec import ExecutionEngine, TaskTimeout, WorkItem


class FailNTimesStub:
    """A benchmark-like callable failing its first ``n_failures`` calls.

    Thread-safe so engine workers can hammer it concurrently.
    """

    def __init__(self, n_failures: int, value: float = 42.0,
                 slow_first: float = 0.0):
        self.n_failures = n_failures
        self.value = value
        self.slow_first = slow_first
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.calls += 1
            attempt = self.calls
        if self.slow_first and attempt == 1:
            time.sleep(self.slow_first)
            return self.value
        if attempt <= self.n_failures:
            raise RuntimeError(f"injected failure #{attempt}")
        return self.value


class TestRetries:
    def test_fails_n_then_succeeds_within_budget(self):
        stub = FailNTimesStub(n_failures=3)
        engine = ExecutionEngine(workers=1, retries=3)
        out = engine.map([WorkItem(fn=stub, label="flaky")])
        assert out[0].ok and out[0].value == 42.0
        assert out[0].attempts == 4
        assert stub.calls == 4

    def test_budget_too_small_yields_error_record(self):
        stub = FailNTimesStub(n_failures=5)
        engine = ExecutionEngine(workers=1, retries=2)
        out = engine.map([WorkItem(fn=stub)])
        assert not out[0].ok
        assert out[0].attempts == 3
        assert "injected failure #3" in out[0].error

    def test_permanent_failure_does_not_abort_siblings(self):
        bad = FailNTimesStub(n_failures=10 ** 6)
        good = [FailNTimesStub(n_failures=0, value=float(i))
                for i in range(6)]
        items = [WorkItem(fn=g, label=f"good{i}")
                 for i, g in enumerate(good)]
        items.insert(3, WorkItem(fn=bad, label="doomed", retries=2))
        out = ExecutionEngine(workers=4).map(items)
        assert [o.ok for o in out] == [True, True, True, False,
                                       True, True, True]
        assert [o.value for o in out if o.ok] == [0.0, 1.0, 2.0,
                                                  3.0, 4.0, 5.0]
        journal = ExecutionEngine(workers=4).journal  # fresh = empty
        assert len(journal) == 0

    def test_timeout_then_retry_succeeds(self):
        # first attempt is slow (times out post-hoc), second is instant
        stub = FailNTimesStub(n_failures=0, slow_first=0.05)
        engine = ExecutionEngine(workers=1, retries=1, timeout=0.01)
        out = engine.map([WorkItem(fn=stub)])
        assert out[0].ok and out[0].attempts == 2

    def test_timeout_without_retry_is_an_error(self):
        stub = FailNTimesStub(n_failures=0, slow_first=0.05)
        out = ExecutionEngine(workers=1, timeout=0.01).map(
            [WorkItem(fn=stub)])
        assert not out[0].ok
        assert isinstance(out[0].exception, TaskTimeout)


class TestCooperativeTimeoutSemantics:
    """Regression pins for the documented post-hoc timeout contract.

    The timeout is cooperative: an over-budget attempt runs to
    completion and only *then* fails with :class:`TaskTimeout`.  A
    timed-out final attempt must therefore report ``ok=False`` with
    the measured elapsed time in the error string.
    """

    def test_overlong_attempt_runs_to_completion_before_failing(self):
        stub = FailNTimesStub(n_failures=0, slow_first=0.05)
        out = ExecutionEngine(workers=1, timeout=0.01).map(
            [WorkItem(fn=stub, label="slow")])
        # the payload DID complete (one call happened) -- the timeout
        # fired after the fact, not preemptively
        assert stub.calls == 1
        assert not out[0].ok

    def test_timed_out_final_attempt_reports_elapsed_in_error(self):
        stub = FailNTimesStub(n_failures=0, slow_first=0.05)
        out = ExecutionEngine(workers=1, retries=0, timeout=0.01).map(
            [WorkItem(fn=stub, label="slow")])
        assert out[0].ok is False
        exc = out[0].exception
        assert isinstance(exc, TaskTimeout)
        assert exc.elapsed >= 0.05 and exc.budget == 0.01
        # the elapsed time is part of the journalled error string
        assert "attempt took" in out[0].error
        assert f"{exc.elapsed:.3f}" in out[0].error
        assert "timeout 0.010" in out[0].error

    def test_virtual_clock_timeout_is_deterministic(self):
        from repro.telemetry import ManualClock, Tracer

        def two_ticks():
            clock()  # consume virtual time inside the attempt
            return 1

        clock = ManualClock(start=0.0, tick=1.0)
        engine = ExecutionEngine(workers=1, timeout=0.5,
                                 tracer=Tracer(clock=clock))
        out = engine.map([WorkItem(fn=two_ticks, label="ticks")])
        assert not out[0].ok
        assert isinstance(out[0].exception, TaskTimeout)
