"""Latency percentiles of the replay report (capture side and replay side)."""

from __future__ import annotations

import pytest

from repro.obs.replay import latency_percentiles

pytestmark = pytest.mark.obs


class TestLatencyPercentiles:
    def test_empty(self):
        assert latency_percentiles([]) == {}

    def test_single_sample(self):
        p = latency_percentiles([0.5])
        assert p["p50"] == p["p95"] == p["p99"] == 0.5
        assert p["n"] == 1

    def test_interpolation_and_order(self):
        samples = [i / 100 for i in range(1, 101)]  # 0.01 .. 1.00
        p = latency_percentiles(samples)
        assert abs(p["p50"] - 0.505) < 1e-9
        assert p["p50"] < p["p95"] < p["p99"] <= 1.0
        assert p["n"] == 100

    def test_order_independent(self):
        a = latency_percentiles([3.0, 1.0, 2.0])
        b = latency_percentiles([1.0, 2.0, 3.0])
        assert a == b
