"""Metric primitives: counters, gauges, histograms, registry, ticker."""

import threading

import pytest

from repro.obs import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6.0

    def test_function_binding_wins(self):
        g = Gauge("depth")
        g.set(1)
        g.set_function(lambda: 42)
        assert g.value == 42.0
        assert g.snapshot() == 42.0

    def test_fn_at_construction(self):
        assert Gauge(fn=lambda: 7).value == 7.0


class TestHistogram:
    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0}

    def test_snapshot_keys_and_values(self):
        h = Histogram(capacity=16)
        for v in (0.01, 0.02, 0.03, 0.04):
            h.observe(v)
        s = h.snapshot()
        assert s["count"] == 4
        assert s["min"] == 0.01
        assert s["max"] == 0.04
        assert s["mean"] == pytest.approx(0.025)
        assert s["p50"] == pytest.approx(0.025)
        assert set(s) == {"count", "mean", "min", "max", "p50", "p90", "p99"}

    def test_reservoir_bounded_but_count_total(self):
        h = Histogram(capacity=8)
        for k in range(100):
            h.observe(float(k))
        s = h.snapshot()
        assert s["count"] == 100          # true count
        assert s["max"] == 99.0           # running extrema survive eviction
        assert s["p50"] >= 92.0           # percentiles from the newest window

    def test_bucket_snapshot_is_cumulative(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        b = h.bucket_snapshot()
        assert b["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}  # 50.0 -> +Inf only
        assert b["count"] == 5
        assert b["sum"] == pytest.approx(56.05)

    def test_bucket_edge_is_inclusive(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_snapshot()["buckets"] == {1.0: 1, 2.0: 1}

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Histogram(capacity=0)
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    def test_registration_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total")
        b = reg.counter("jobs_total")
        assert a is b
        assert reg.get("jobs_total") is a
        assert reg.names() == ["jobs_total"]

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(0.2)
        snap = reg.snapshot()
        assert snap["a"] == 3.0
        assert snap["b"] == 1.5
        assert snap["c"]["count"] == 1

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", help="jobs seen").inc(2)
        reg.gauge("queue_depth").set(4)
        reg.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.prometheus_text()
        assert "# HELP jobs_total jobs seen" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 2" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 4" in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.05" in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_name_sanitised(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with space")
        assert "weird_name_with_space 0" in reg.prometheus_text()

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().prometheus_text() == ""
