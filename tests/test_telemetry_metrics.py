"""Unit tests of the metrics registry (repro.telemetry.metrics):
instrument semantics (histogram bucket boundaries above all),
label-series identity, snapshot/delta views and thread safety."""

import threading

import pytest

from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    default_registry,
    render_snapshot,
    set_default_registry,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("tasks_total", status="ok")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("fom_seconds")
        gauge.set(10.0)
        gauge.add(-2.5)
        assert gauge.value == 7.5

    def test_label_series_identity(self):
        reg = MetricsRegistry()
        # same labels in any kwarg order -> the same instrument
        a = reg.counter("t", status="ok", cache="hit")
        b = reg.counter("t", cache="hit", status="ok")
        c = reg.counter("t", cache="miss", status="ok")
        assert a is b
        assert a is not c
        a.inc()
        snap = reg.snapshot()
        assert snap["counters"]["t{cache=hit,status=ok}"] == 1.0
        assert snap["counters"]["t{cache=miss,status=ok}"] == 0.0


class TestHistogram:
    def test_bucket_boundaries_are_le(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for value, bucket in [
            (0.05, 0),        # below the first bound
            (0.1, 0),         # exactly on a bound -> that bucket (le)
            (0.1000001, 1),   # just above -> next bucket
            (1.0, 1),
            (10.0, 2),
            (10.5, 3),        # above the last bound -> +inf overflow
        ]:
            before = list(hist.counts)
            hist.observe(value)
            changed = [i for i, (a, b) in
                       enumerate(zip(before, hist.counts)) if a != b]
            assert changed == [bucket], \
                f"observe({value}) landed in {changed}, expected [{bucket}]"
        assert hist.count == 6
        assert hist.mean == pytest.approx(
            (0.05 + 0.1 + 0.1000001 + 1.0 + 10.0 + 10.5) / 6)

    def test_invalid_buckets_rejected(self):
        for bad in ((), (1.0, 0.5), (1.0, 1.0)):
            with pytest.raises(ValueError):
                Histogram(buckets=bad)

    def test_reregister_with_different_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        assert reg.histogram("lat", buckets=(0.1, 1.0)) is not None
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("lat", buckets=(0.5, 1.0))


class TestSnapshotDelta:
    def test_delta_subtracts_counters_and_histograms(self):
        reg = MetricsRegistry()
        counter = reg.counter("runs_total")
        hist = reg.histogram("seconds", buckets=(1.0, 10.0))
        gauge = reg.gauge("level")
        reg.counter("idle_total").inc()
        counter.inc(2)
        hist.observe(0.5)
        gauge.set(1.0)
        before = reg.snapshot()
        counter.inc(3)
        hist.observe(5.0)
        gauge.set(7.0)
        delta = MetricsRegistry.delta(before, reg.snapshot())
        assert delta["counters"]["runs_total"] == 3.0
        assert delta["counters"]["idle_total"] == 0.0   # unchanged
        assert delta["gauges"]["level"] == 7.0  # gauges: later value
        assert delta["histograms"]["seconds"]["counts"] == [0, 1, 0]
        assert delta["histograms"]["seconds"]["count"] == 1
        assert delta["histograms"]["seconds"]["sum"] == pytest.approx(5.0)

    def test_snapshot_is_json_safe_and_renderable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        text = render_snapshot(reg.snapshot())
        assert "counter   a" in text
        assert "histogram h" in text
        assert "le=1" in text

    def test_empty_registry_renders_placeholder(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()

    def test_default_registry_swap_returns_previous(self):
        original = default_registry()
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert previous is original
            assert default_registry() is fresh
        finally:
            set_default_registry(original)
        assert default_registry() is original


class TestThreadSafety:
    def test_concurrent_updates_do_not_lose_counts(self):
        reg = MetricsRegistry()
        counter = reg.counter("hammer_total")
        hist = reg.histogram("hammer_seconds", buckets=(0.5,))
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.1)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == threads * per_thread
        assert hist.count == threads * per_thread
        assert hist.counts[0] == threads * per_thread
