"""Out-of-order span tolerance: shard workers report asynchronously.

Parent references are span *indices*, not list positions, so every
``Trace.to_dict()`` consumer must resolve them through the ``index``
field — and ``traces_jsonl`` must emit spans in a deterministic order
regardless of the order they were recorded in.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.obs.critical_path import critical_path, self_times, summarize_trace
from repro.obs.export import traces_jsonl
from repro.obs.trace import QueryScope, Trace, span

pytestmark = pytest.mark.obs


def _spans_in_order() -> list[dict]:
    """root(10) -> [fast(2), slow(6 -> leaf(5))] plus a late shard span."""
    return [
        {"index": 0, "parent": -1, "name": "query", "start_s": 0.0, "wall_s": 10.0, "cpu_s": 9.0},
        {"index": 1, "parent": 0, "name": "fast", "start_s": 0.5, "wall_s": 2.0, "cpu_s": 2.0},
        {"index": 2, "parent": 0, "name": "slow", "start_s": 3.0, "wall_s": 6.0, "cpu_s": 1.0},
        {"index": 3, "parent": 2, "name": "leaf", "start_s": 3.5, "wall_s": 5.0, "cpu_s": 4.0},
        {"index": 4, "parent": 0, "name": "shard.scan", "start_s": 1.0, "wall_s": 0.5, "cpu_s": 0.5},
    ]


def _trace_dict(spans: list[dict]) -> dict:
    return {
        "query_id": "q1",
        "tag": "t",
        "started_at": 1000.0,
        "spans": spans,
    }


def _shuffled(spans: list[dict], seed: int) -> list[dict]:
    shuffled = list(spans)
    random.Random(seed).shuffle(shuffled)
    return shuffled


class TestOrderInvariance:
    def test_self_times_resolve_parents_by_index_field(self):
        ordered = _spans_in_order()
        by_index_ref = {
            s["index"]: t for s, t in zip(ordered, self_times(ordered))
        }
        for seed in range(5):
            spans = _shuffled(ordered, seed)
            by_index = {
                s["index"]: t for s, t in zip(spans, self_times(spans))
            }
            assert by_index == by_index_ref

    def test_critical_path_is_order_invariant(self):
        reference = critical_path(_trace_dict(_spans_in_order()))
        assert [p["name"] for p in reference] == ["query", "slow", "leaf"]
        for seed in range(5):
            spans = _shuffled(_spans_in_order(), seed)
            assert critical_path(_trace_dict(spans)) == reference

    def test_summarize_trace_is_order_invariant(self):
        reference = summarize_trace(_trace_dict(_spans_in_order()))
        assert reference["wall_s"] == 10.0
        for seed in range(5):
            spans = _shuffled(_spans_in_order(), seed)
            assert summarize_trace(_trace_dict(spans)) == reference


class TestTracesJsonlDeterminism:
    def test_spans_emitted_sorted_by_start_then_index(self):
        for seed in range(5):
            line = traces_jsonl(
                [_trace_dict(_shuffled(_spans_in_order(), seed))]
            ).strip()
            spans = json.loads(line)["spans"]
            keys = [(s["start_s"], s["index"]) for s in spans]
            assert keys == sorted(keys)
            assert [s["index"] for s in spans] == [0, 1, 4, 2, 3]

    def test_identical_output_for_any_recording_order(self):
        outputs = {
            traces_jsonl([_trace_dict(_shuffled(_spans_in_order(), seed))])
            for seed in range(6)
        }
        assert len(outputs) == 1

    def test_real_trace_with_foreign_spans_round_trips(self):
        trace = Trace("q2", "svc")
        with QueryScope(trace):
            with span("query"):
                with span("scan"):
                    pass
        # Foreign shard spans land after the fact: their start can precede
        # already-recorded spans.
        trace.add_span("shard.scan", start=time.perf_counter() - 5.0, wall_s=5.0, shard=1)
        line = traces_jsonl([trace]).strip()
        data = json.loads(line)
        keys = [(s["start_s"], s["index"]) for s in data["spans"]]
        assert keys == sorted(keys)
        path = critical_path(data)
        assert path[0]["name"] == "query"
