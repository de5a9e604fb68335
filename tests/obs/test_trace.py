"""Span tracer: ambient propagation, sampling, the ring."""

from __future__ import annotations

import time

import pytest

from repro.obs.trace import (
    QueryScope,
    Trace,
    Tracer,
    current_scope,
    current_trace,
    span,
)

pytestmark = pytest.mark.obs


class TestAmbientPropagation:
    def test_no_scope_means_null_span(self):
        assert current_trace() is None
        with span("anything") as sp:
            sp.set(rows=3)  # must be a harmless no-op
        # The unsampled path allocates nothing: one shared singleton.
        assert span("a") is span("b")

    def test_nesting_records_parent_links(self):
        trace = Trace("q1", "t")
        with QueryScope(trace):
            assert current_trace() is trace
            with span("a"):
                with span("b") as sp:
                    sp.set(rows=7)
            with span("c"):
                pass
        assert current_trace() is None
        names = [s.name for s in trace.spans]
        assert names == ["query", "a", "b", "c"]
        parents = [s.parent for s in trace.spans]
        assert parents == [-1, 0, 1, 0]
        assert trace.spans[2].attrs["rows"] == 7
        assert trace.status == "ok"
        # The root span covers its children.
        assert trace.spans[0].wall_s >= trace.spans[1].wall_s >= 0.0

    def test_scope_failure_marks_trace(self):
        trace = Trace("q1", "t")
        with pytest.raises(RuntimeError, match="boom"):
            with QueryScope(trace):
                with span("a"):
                    raise RuntimeError("boom")
        assert trace.status == "failed"
        assert "boom" in trace.error
        # The failing span carries the error too.
        assert "boom" in trace.spans[1].attrs["error"]

    def test_none_trace_scope_is_cheap_and_transparent(self):
        with QueryScope(None):
            assert current_trace() is None
            with span("a"):
                pass

    def test_scopes_restore_outer_trace(self):
        outer, inner = Trace("q1", "t"), Trace("q2", "t")
        with QueryScope(outer):
            with QueryScope(inner):
                assert current_trace() is inner
            assert current_trace() is outer

    def test_a_failing_nested_scope_restores_the_outer_one(self):
        """A scope opened inside another on the same thread — a coalescer
        leader running its group inside its own query — hands back the
        outer trace, deadline and tag even when its body raises."""
        outer_trace, inner_trace = Trace("q1", "outer"), Trace("q2", "inner")
        with QueryScope(outer_trace, deadline=10.0, tag="outer") as outer:
            with pytest.raises(RuntimeError, match="leader"):
                with QueryScope(inner_trace, deadline=5.0, tag="inner") as inner:
                    assert current_scope() is inner
                    assert (current_trace(), inner.deadline, inner.tag) == (
                        inner_trace, 5.0, "inner"
                    )
                    raise RuntimeError("leader failed")
            assert current_scope() is outer
            assert (current_trace(), outer.deadline, outer.tag) == (
                outer_trace, 10.0, "outer"
            )
            assert inner_trace.status == "failed"
            assert outer_trace.status == "running"
        assert current_scope() is None
        assert outer_trace.status == "ok"

    def test_the_retry_budget_is_made_once_on_first_use(self):
        scope = QueryScope()
        assert scope._budget is None  # a cached answer allocates none
        assert scope.retry_budget() is scope.retry_budget()


class TestForeignSpans:
    def test_foreign_span_parents_at_root(self):
        trace = Trace("q1", "t")
        with QueryScope(trace):
            pass
        trace.add_span(
            "coalesce.scan", start=time.perf_counter() - 0.01, wall_s=0.01, cpu_s=0.008, batch=4
        )
        foreign = trace.spans[-1]
        assert foreign.parent == 0
        assert foreign.start_s >= 0.0
        assert foreign.wall_s == 0.01
        assert foreign.attrs["batch"] == 4

    def test_foreign_span_on_empty_trace_is_a_root(self):
        trace = Trace("q1", "t")
        trace.add_span("rescore", start=time.perf_counter(), wall_s=0.001)
        assert trace.spans[0].parent == -1


class TestSampling:
    def test_deterministic_for_a_pinned_seed(self):
        a = Tracer(sample_rate=0.3, seed=7)
        b = Tracer(sample_rate=0.3, seed=7)
        seq_a = [a.maybe_trace(f"q{i}", "t") is not None for i in range(200)]
        seq_b = [b.maybe_trace(f"q{i}", "t") is not None for i in range(200)]
        assert seq_a == seq_b
        assert 0 < sum(seq_a) < 200
        assert a.considered == 200
        assert a.sampled == sum(seq_a)

    def test_rate_bounds(self):
        never = Tracer(sample_rate=0.0, seed=7)
        assert all(never.maybe_trace(f"q{i}", "t") is None for i in range(50))
        always = Tracer(sample_rate=1.0, seed=7)
        assert all(
            always.maybe_trace(f"q{i}", "t") is not None for i in range(50)
        )

    def test_disabled_still_honours_force(self):
        tracer = Tracer(sample_rate=0.0, seed=7)
        assert tracer.maybe_trace("q1", "t") is None
        forced = tracer.maybe_trace("q1", "t", force=True)
        assert isinstance(forced, Trace)


class TestRing:
    def test_ring_keeps_newest_oldest_first(self):
        tracer = Tracer(sample_rate=1.0, ring_size=4, seed=7)
        for i in range(10):
            tracer.record(Trace(f"q{i}", "t"))
        recent = tracer.recent()
        assert [t.query_id for t in recent] == ["q6", "q7", "q8", "q9"]

    def test_to_dict_shape(self):
        trace = Trace("q1", "cli/q1")
        with QueryScope(trace):
            with span("a") as sp:
                sp.set(rows=2)
        snap = trace.to_dict()
        assert snap["query_id"] == "q1"
        assert snap["tag"] == "cli/q1"
        assert snap["status"] == "ok"
        assert len(snap["spans"]) == 2
        assert snap["spans"][1]["attrs"] == {"rows": 2}

    def test_to_dict_emits_absolute_span_starts(self):
        trace = Trace("q2", "cli/q2")
        with QueryScope(trace):
            with span("a"):
                with span("b"):
                    pass
        snap = trace.to_dict()
        for span_dict in snap["spans"]:
            # start_at anchors the relative offset to wall-clock epoch
            # time, so traces from different processes can be aligned.
            assert span_dict["start_at"] == pytest.approx(
                snap["started_at"] + span_dict["start_s"], abs=1e-5
            )
        starts = [s["start_at"] for s in snap["spans"]]
        assert starts == sorted(starts)
