"""Log-histogram percentiles, the exposition renderer, and the metrics a
service renders from its own snapshots."""

from __future__ import annotations

import math

import pytest

from repro import QueryService
from repro.errors import DeadlineExceededError, SchemaError, ServiceOverloadError
from repro.obs.export import prometheus_text, snapshot_rows
from repro.obs.metrics import Histogram

pytestmark = pytest.mark.obs


class TestHistogram:
    def test_empty_percentile_is_none(self):
        h = Histogram()
        assert h.percentile(50) is None
        assert h.count == 0

    def test_single_value_clamps_all_percentiles(self):
        h = Histogram()
        h.observe(0.005)
        assert h.percentile(50) == 0.005
        assert h.percentile(99) == 0.005

    def test_percentiles_are_ordered_and_clamped(self):
        h = Histogram()
        for _ in range(50):
            h.observe(0.001)
        for _ in range(50):
            h.observe(0.004)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert 0.001 <= p50 <= p95 <= p99 <= 0.004
        assert p50 < 0.002  # rank 50 falls inside the low bucket
        assert p99 == 0.004  # interpolation clamps to the observed max

    def test_below_min_value_lands_in_bucket_zero(self):
        h = Histogram()
        h.observe(1e-9)
        assert h.count == 1
        assert h.percentile(50) == 1e-9

    def test_nan_and_negative_ignored(self):
        h = Histogram()
        h.observe(float("nan"))
        h.observe(-1.0)
        assert h.count == 0

    def test_snapshot_shape(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert math.isclose(snap["sum"], 0.007)
        assert set(snap) == {"count", "sum", "p50", "p95", "p99"}


class TestSnapshotRowsAndExposition:
    def test_nested_keys_join_into_names(self):
        """Nested snapshot keys join with ``_`` under the prefix, sanitized
        to the name charset; each name remembers the path it came from."""
        rows: list = []
        paths: dict = {}
        snap = {"engine": {"steals": 3, "hit-rate": 0.5}, "up": True, "mode": "x"}
        snapshot_rows(rows, paths, "repro", "stats_snapshot()", snap)
        assert rows == [
            ("repro_engine_steals", {}, 3.0),
            ("repro_engine_hit_rate", {}, 0.5),
            ("repro_up", {}, 1.0),
        ]
        assert paths["repro_engine_steals"] == 'stats_snapshot()["engine"]["steals"]'
        assert paths["repro_engine_hit_rate"] == (
            'stats_snapshot()["engine"]["hit-rate"]'
        )

    def test_prometheus_text_exposition(self):
        h = Histogram()
        h.observe(0.002)
        text = prometheus_text(
            [
                ("repro_queries_total", {"outcome": "completed"}, 3),
                ("repro_lat_seconds", {}, h),
            ]
        )
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{outcome="completed"} 3' in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert "repro_lat_seconds_count 1" in text
        assert 'repro_lat_seconds{quantile="0.5"} 0.002' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        text = prometheus_text([("g", {"path": 'a"b\nc'}, 1.0)])
        assert "# TYPE g gauge" in text
        assert 'path="a\\"b\\nc"' in text

    def test_empty_histogram_quantiles_render_nan(self):
        text = prometheus_text([("lat", {}, Histogram())])
        assert 'lat{quantile="0.99"} NaN' in text


class TestBreakerTransitions:
    def test_breaker_transitions_render_in_metrics(self, obs_engine):
        """A breaker's transitions, counted once on the breaker in the
        engine's breaker registry, render as the service's
        ``repro_breaker_transitions_total{to}``; a state never entered
        renders no sample."""
        registry = obs_engine.breakers
        registry.cooldown_s = 0.0
        key = ("corpus", "emb", "m", "index")
        with QueryService(obs_engine) as service:
            for _ in range(registry.threshold):
                registry.record_failure(key)  # trips open
            text = service.metrics()
            assert 'repro_breaker_transitions_total{to="open"} 1' in text
            assert 'to="half_open"' not in text and 'to="closed"' not in text
            assert registry.allow(key)  # half-open trial after zero cooldown
            registry.record_success(key)  # recovers
            text = service.metrics()
        assert 'repro_breaker_transitions_total{to="open"} 1' in text
        assert 'repro_breaker_transitions_total{to="half_open"} 1' in text
        assert 'repro_breaker_transitions_total{to="closed"} 1' in text
        assert 'repro_breaker_trips{path="corpus/emb/m/index"} 1.0' in text
        assert 'repro_breaker_closes{path="corpus/emb/m/index"} 1.0' in text
        assert registry.get(key).half_opens == 1


    def test_another_engines_breakers_render_nothing(self, obs_engine):
        """A service renders its own engine's breakers only: a path tripped
        on another engine shows no sample and leaves the count at zero."""
        from _service_utils import make_engine

        other = make_engine()
        for _ in range(other.breakers.threshold):
            other.breakers.record_failure(("corpus", "emb", "m", "index"))
        with QueryService(obs_engine) as service:
            text = service.metrics()
        assert "repro_breakers_open_total 0" in text
        assert 'path="corpus/emb/m/index"' not in text
        assert "repro_breaker_transitions_total" not in text


def _families(text: str) -> dict[str, list[str]]:
    """``family -> [its # HELP / # TYPE lines]`` of an exposition."""
    headers: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.startswith(("# HELP ", "# TYPE ")):
            headers.setdefault(line.split(" ", 3)[2], []).append(line)
    return headers


class TestServiceExposition:
    def test_each_service_renders_only_its_own_counts(self, obs_engine, query_vectors):
        """Two services in one process: the second one's metrics show
        nothing the first one counted."""
        def query(qvec):
            return obs_engine.query("corpus").esimilar("emb", qvec, model="m", top_k=5)

        with QueryService(obs_engine) as first:
            for qvec in query_vectors[:5]:
                first.submit(query(qvec))
            assert "repro_coalescer_groups 5.0" in first.metrics()
        with QueryService(obs_engine, coalesce=False) as second:
            second.submit(query(query_vectors[5]))
            text = second.metrics()
        assert "repro_coalescer_" not in text
        assert 'repro_queries_total{outcome="completed"} 1\n' in text
        assert "repro_query_latency_seconds_count 1\n" in text
        assert "repro_service_completed 1.0\n" in text

    def test_every_submission_lands_in_one_outcome(self, obs_engine, query_vectors):
        """One completed, one failed, one shed and one rejected submission
        each count once, under their own ``repro_queries_total`` outcome."""
        def query(qvec, column="emb"):
            return obs_engine.query("corpus").esimilar(
                column, qvec, model="m", top_k=5
            )

        with QueryService(obs_engine, coalesce=False, max_inflight=1) as service:
            service.submit(query(query_vectors[0]))
            with pytest.raises(SchemaError):
                service.submit(query(query_vectors[1], column="missing"))
            with pytest.raises(DeadlineExceededError):
                service.submit_qos(query(query_vectors[2]), deadline_s=-0.001)
            service.admission.acquire()  # hold the only slot
            try:
                with pytest.raises(ServiceOverloadError):
                    service.submit(query(query_vectors[3]), timeout_s=0.02)
            finally:
                service.admission.release()
            text = service.metrics()
            admission = service.stats_snapshot()["admission"]
        for outcome in ("completed", "failed", "shed", "rejected"):
            assert f'repro_queries_total{{outcome="{outcome}"}} 1\n' in text
        # One owner per count: the shed before admission and the rejection
        # are admission's, and the outcomes read them from it.
        assert (admission["deadline_shed"], admission["rejected"]) == (1, 1)
        assert "repro_admission_deadline_shed 1.0\n" in text
        assert "repro_admission_rejected 1.0\n" in text

    def test_scrape_reads_other_layers_outside_the_stats_lock(self, obs_engine):
        """A scrape holds the service's stats lock only while it reads the
        service's own counters: every other layer is read without it, so
        running submissions never wait on a whole flattening."""
        with QueryService(obs_engine) as service:
            held = []
            for layer in (service.admission, service.results, service.coalescer):
                def spy(snapshot=layer.stats_snapshot):
                    held.append(service._stats_lock.locked())
                    return snapshot()

                layer.stats_snapshot = spy
            text = service.metrics()
        assert held == [False] * 3
        assert 'repro_queries_total{outcome="completed"} 0\n' in text

    def test_one_help_and_one_type_per_family(self, obs_engine, query_vectors, tmp_path):
        """A real service's exposition: one ``# HELP`` then one ``# TYPE``
        per family, each HELP from the help table or the snapshot path
        the family was read from, never a class docstring."""
        from repro.obs.export import METRIC_HELP

        with QueryService(obs_engine, capture_path=str(tmp_path / "c.jsonl")) as service:
            for qvec in query_vectors[:3]:
                service.submit(
                    obs_engine.query("corpus").esimilar("emb", qvec, model="m", top_k=5)
                )
            text = service.metrics()
        families = _families(text)
        assert len(families) > 50
        for family, (help_line, type_line, *extra) in families.items():
            assert not extra, (family, extra)
            assert help_line.startswith(f"# HELP {family} ")
            assert type_line.startswith(f"# TYPE {family} ")
            help_text = help_line.split(" ", 3)[3]
            assert help_text == METRIC_HELP.get(family) or help_text.startswith(
                ("stats_snapshot()[", "health().", "recorder.stats_snapshot()[")
            ), (family, help_text)
        assert families["repro_engine_runs"][0].endswith(
            'stats_snapshot()["engine"]["runs"]'
        )
