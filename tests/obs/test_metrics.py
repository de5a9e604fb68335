"""Metrics registry: counters, gauges, log-histogram percentiles, export."""

from __future__ import annotations

import math

import pytest

from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from repro.reliability.breaker import CircuitBreaker

pytestmark = pytest.mark.obs


class TestCounterGauge:
    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("inflight")
        g.set(3)
        g.add(-1)
        assert g.value == 2.0

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total", a="1") is reg.counter("x_total", a="1")
        assert reg.counter("x_total", a="1") is not reg.counter("x_total", a="2")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        # Same conflict across label sets of one name.
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x_total", path="a")


class TestHistogram:
    def test_empty_percentile_is_none(self):
        h = Histogram("lat", {})
        assert h.percentile(50) is None
        assert h.count == 0

    def test_single_value_clamps_all_percentiles(self):
        h = Histogram("lat", {})
        h.observe(0.005)
        assert h.percentile(50) == 0.005
        assert h.percentile(99) == 0.005

    def test_percentiles_are_ordered_and_clamped(self):
        h = Histogram("lat", {})
        for _ in range(50):
            h.observe(0.001)
        for _ in range(50):
            h.observe(0.004)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert 0.001 <= p50 <= p95 <= p99 <= 0.004
        assert p50 < 0.002  # rank 50 falls inside the low bucket
        assert p99 == 0.004  # interpolation clamps to the observed max

    def test_below_min_value_lands_in_bucket_zero(self):
        h = Histogram("lat", {})
        h.observe(1e-9)
        assert h.count == 1
        assert h.percentile(50) == 1e-9

    def test_nan_and_negative_ignored(self):
        h = Histogram("lat", {})
        h.observe(float("nan"))
        h.observe(-1.0)
        assert h.count == 0

    def test_snapshot_shape(self):
        h = Histogram("lat", {})
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert math.isclose(snap["sum"], 0.007)
        assert set(snap) == {"count", "sum", "p50", "p95", "p99"}


class TestRegistrySnapshotAndExport:
    def test_snapshot_key_format(self):
        reg = MetricsRegistry()
        reg.gauge("g", b="2", a="1").set(5)
        reg.counter("c_total").inc()
        snap = reg.snapshot()
        assert snap["g{a=1,b=2}"] == 5.0
        assert snap["c_total"] == 1

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", outcome="ok").inc(3)
        h = reg.histogram("repro_lat_seconds")
        h.observe(0.002)
        text = prometheus_text(reg)
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{outcome="ok"} 3' in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert "repro_lat_seconds_count 1" in text
        assert 'repro_lat_seconds{quantile="0.5"} 0.002' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.gauge("g", path='a"b\nc').set(1)
        text = prometheus_text(reg)
        assert 'path="a\\"b\\nc"' in text

    def test_empty_histogram_quantiles_render_nan(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        text = prometheus_text(reg)
        assert 'lat{quantile="0.99"} NaN' in text


class TestProcessRegistry:
    def test_registry_is_process_wide_until_reset(self):
        r1 = registry()
        assert registry() is r1
        reset_registry()
        assert registry() is not r1

    def test_breaker_transitions_land_in_registry(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.0)
        breaker.record_failure()
        breaker.record_failure()  # trips open
        opened = registry().counter("repro_breaker_transitions_total", to="open")
        assert opened.value == 1
        assert breaker.allow()  # half-open trial after zero cooldown
        breaker.record_success()  # recovers
        closed = registry().counter("repro_breaker_transitions_total", to="closed")
        assert closed.value == 1
        assert breaker.closes == 1
