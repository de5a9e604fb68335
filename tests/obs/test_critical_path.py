"""Critical-path extraction, self-time attribution, and the slow-query log."""

from __future__ import annotations

import threading

import pytest

from _service_utils import MODEL

from repro import QueryService
from repro.obs.critical_path import (
    SlowQueryLog,
    critical_path,
    self_times,
    summarize_trace,
)
from repro.obs.trace import QueryScope, Trace, span

pytestmark = pytest.mark.obs


def _synthetic_trace() -> dict:
    """root(10) -> [fast(2), slow(6 -> leaf(5))]; self times 2/2/1/5."""
    return {
        "query_id": "q1",
        "tag": "t",
        "started_at": 1000.0,
        "spans": [
            {"index": 0, "parent": -1, "name": "query", "start_s": 0.0, "wall_s": 10.0, "cpu_s": 9.0},
            {"index": 1, "parent": 0, "name": "fast", "start_s": 0.5, "wall_s": 2.0, "cpu_s": 2.0},
            {"index": 2, "parent": 0, "name": "slow", "start_s": 3.0, "wall_s": 6.0, "cpu_s": 1.0},
            {"index": 3, "parent": 2, "name": "leaf", "start_s": 3.5, "wall_s": 5.0, "cpu_s": 4.0},
        ],
    }


class TestSelfTimes:
    def test_self_time_subtracts_children(self):
        selfs = self_times(_synthetic_trace()["spans"])
        assert selfs == [2.0, 2.0, 1.0, 5.0]

    def test_self_time_clamps_at_zero(self):
        # Concurrent children can legitimately out-sum the parent.
        spans = [
            {"index": 0, "parent": -1, "name": "r", "start_s": 0, "wall_s": 1.0},
            {"index": 1, "parent": 0, "name": "a", "start_s": 0, "wall_s": 0.8},
            {"index": 2, "parent": 0, "name": "b", "start_s": 0, "wall_s": 0.9},
        ]
        assert self_times(spans)[0] == 0.0


class TestCriticalPath:
    def test_follows_largest_wall_child(self):
        path = critical_path(_synthetic_trace())
        assert [p["name"] for p in path] == ["query", "slow", "leaf"]
        assert path[1]["self_s"] == 1.0
        assert path[2]["wall_s"] == 5.0

    def test_empty_trace(self):
        assert critical_path({"spans": []}) == []

    def test_accepts_live_trace_objects(self):
        trace = Trace("q9", "tag")
        with QueryScope(trace):
            with span("work"):
                with span("inner"):
                    pass
        path = critical_path(trace)
        assert [p["name"] for p in path] == ["query", "work", "inner"]

    def test_summary_shape(self):
        summary = summarize_trace(_synthetic_trace())
        assert summary["query_id"] == "q1"
        assert summary["wall_s"] == 10.0
        assert summary["spans"] == 4
        assert [h["name"] for h in summary["hotspots"]] == [
            "leaf",
            "query",
            "fast",
        ]
        assert [p["name"] for p in summary["critical_path"]] == [
            "query",
            "slow",
            "leaf",
        ]


class TestSlowQueryLog:
    def _trace(self, wall: float, qid: str) -> dict:
        return {
            "query_id": qid,
            "tag": "t",
            "started_at": 0.0,
            "spans": [
                {
                    "index": 0,
                    "parent": -1,
                    "name": "query",
                    "start_s": 0.0,
                    "wall_s": wall,
                    "cpu_s": wall,
                }
            ],
        }

    def test_keeps_top_k_slowest(self):
        log = SlowQueryLog(3)
        for i, wall in enumerate([0.1, 0.5, 0.2, 0.9, 0.05, 0.4]):
            log.offer(self._trace(wall, f"q{i}"))
        snapshot = log.snapshot()
        assert [e["wall_s"] for e in snapshot] == [0.9, 0.5, 0.4]
        assert log.offered == 6
        assert len(log) == 3

    def test_k_zero_disables(self):
        log = SlowQueryLog(0)
        assert not log.offer(self._trace(1.0, "q"))
        assert log.snapshot() == []

    def test_concurrent_offers(self):
        log = SlowQueryLog(8)
        threads = [
            threading.Thread(
                target=lambda base: [
                    log.offer(self._trace(base + i * 0.01, f"q{base}-{i}"))
                    for i in range(20)
                ],
                args=(b,),
            )
            for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = log.snapshot()
        assert len(snapshot) == 8
        walls = [e["wall_s"] for e in snapshot]
        assert walls == sorted(walls, reverse=True)


class TestServiceSlowQueries:
    def test_slow_queries_populated_from_traced_queries(
        self, obs_engine, query_vectors
    ):
        with QueryService(obs_engine, obs_sample_rate=1.0) as service:
            service.slow_log.k = 4
            for i, qvec in enumerate(query_vectors[:6], 1):
                service.submit(
                    service.engine.query("corpus").esimilar(
                        "emb", qvec, model=MODEL, top_k=5
                    ),
                    tag=f"slow/q{i}",
                )
            entries = service.slow_queries()
        assert 0 < len(entries) <= 4
        walls = [e["wall_s"] for e in entries]
        assert walls == sorted(walls, reverse=True)
        for entry in entries:
            assert entry["critical_path"][0]["name"] == "query"
            assert entry["hotspots"]

    def test_untraced_service_has_empty_slow_log(self, obs_engine, query_vectors):
        with QueryService(obs_engine, obs_sample_rate=0.0) as service:
            service.submit(
                service.engine.query("corpus").esimilar(
                    "emb", query_vectors[0], model=MODEL, top_k=5
                ),
                tag="s/q1",
            )
            assert service.slow_queries() == []
