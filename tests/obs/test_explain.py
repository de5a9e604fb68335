"""EXPLAIN ANALYZE end-to-end through the query service."""

from __future__ import annotations

import asyncio
import time

import pytest
from _service_utils import DIM, MODEL

from repro.service import AsyncQueryService, QueryService

pytestmark = pytest.mark.obs


def _query(service, qvec, *, top_k=5):
    return service.engine.query("corpus").esimilar(
        "emb", qvec, model=MODEL, top_k=top_k
    )


def test_explain_analyze_renders_the_span_tree(obs_engine, query_vectors):
    # sampling off: explain_analyze must still force a trace.
    with QueryService(obs_engine, obs_sample_rate=0.0) as service:
        response = service.submit(
            _query(service, query_vectors[0]), tag="cli/q1", explain_analyze=True
        )
    assert response.table.num_rows == 5
    assert response.query_id is not None
    text = response.explain
    lines = text.splitlines()
    assert lines[0].startswith(f"EXPLAIN ANALYZE {response.query_id} ")
    assert "tag=cli/q" in lines[0]
    assert "status=ok" in lines[0]
    for name in ("query", "admission", "plan.optimize", "cache.lookup", "execute"):
        assert name in text, f"span {name!r} missing from:\n{text}"
    # The coalesced single query still records the shared scan, its
    # rescore and its output table.
    assert "coalesce.scan" in text
    assert "rescore" in text
    assert "materialize" in text
    assert "ms wall" in text and "ms cpu" in text


def test_explain_analyze_shows_cache_hit(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_sample_rate=0.0) as service:
        query = _query(service, query_vectors[1])
        first = service.submit(query, tag="cli/q1", explain_analyze=True)
        second = service.submit(query, tag="cli/q2", explain_analyze=True)
    assert "hit=false" in first.explain
    assert "hit=true" in second.explain
    assert second.query_id != first.query_id
    # A cache hit never reaches the engine and plans nothing.
    assert "execute" not in second.explain
    assert "plan.optimize" in first.explain
    assert "plan.optimize" not in second.explain


def _front_hit(service, query, probes: list):
    """``query``'s answer, already cached, through an async front whose
    probe is padded by a 20 ms sleep; ``probes`` gets each probe's time."""
    probe = service.probe

    def slow_probe(*args, **kwargs):
        began = time.perf_counter()
        time.sleep(0.02)
        try:
            return probe(*args, **kwargs)
        finally:
            probes.append(time.perf_counter() - began)

    service.probe = slow_probe

    async def through_front():
        async with AsyncQueryService(service, workers=1) as front:
            return await front.submit(query, tag="front/hit")

    return asyncio.run(through_front())


def test_a_front_hit_times_its_probe_in_cache_lookup(obs_engine, query_vectors):
    """The async front answers a hit from the probe it ran on its event
    loop, before the query's trace exists; the sampled trace's
    ``cache.lookup`` span is placed over that probe, so its wall covers
    the probe's own measured time (here padded by a sleep)."""
    with QueryService(obs_engine, obs_sample_rate=1.0) as service:
        query = _query(service, query_vectors[4])
        service.submit(query)
        probes = []
        response = _front_hit(service, query, probes)
    assert response.cache_hit and response.trace is not None
    assert len(probes) == 1  # the loop's probe, and no second one
    lookups = response.trace.find("cache.lookup")
    assert [s.attrs for s in lookups] == [{"hit": True}]
    assert [s.name for s in response.trace.spans] == ["query", "cache.lookup"]
    assert lookups[0].parent == 0
    assert lookups[0].wall_s >= probes[0]


def test_an_untraced_front_hit_is_timed_from_its_probe(obs_engine, query_vectors):
    """A hit the front answers in one step (sampled out, no deadline) is
    timed from the front's probe, not from after it: its latency and the
    ``repro_query_latency_seconds`` histogram cover the padded probe."""
    with QueryService(obs_engine, obs_sample_rate=0.0) as service:
        query = _query(service, query_vectors[5])
        service.submit(query)
        before = service._latency.snapshot()
        probes = []
        response = _front_hit(service, query, probes)
        after = service._latency.snapshot()
    assert response.cache_hit and response.trace is None and len(probes) == 1
    assert response.latency_s >= probes[0] >= 0.02
    assert after["count"] == before["count"] + 1
    assert after["sum"] - before["sum"] == pytest.approx(response.latency_s)


def test_explain_analyze_direct_path(obs_engine, query_vectors):
    with QueryService(obs_engine, coalesce=False, obs_sample_rate=0.0) as service:
        response = service.submit(
            _query(service, query_vectors[2]), tag="cli/q1", explain_analyze=True
        )
    assert "mode=direct" in response.explain
    assert "planner.eselect" in response.explain


@pytest.mark.usefixtures("schedule_every_task")
def test_explain_analyze_ejoin_shows_engine_run():
    # Big enough that the tensor join splits into multiple blocks and
    # actually runs on the morsel executor (small joins execute inline).
    from _service_utils import make_corpus_table

    from repro.embedding import HashingEmbedder
    from repro.engine import ExecutionEngine
    from repro.query import Engine
    from repro.relational import Catalog

    catalog = Catalog()
    catalog.register("corpus", make_corpus_table(4000, stream="obs-tests/ejoin"))
    catalog.register("other", make_corpus_table(120, stream="obs-tests/ejoin-r"))
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    engine.executor = ExecutionEngine(n_threads=2)

    with QueryService(engine, obs_sample_rate=0.0) as service:
        query = service.engine.query("corpus").ejoin(
            "other", left_on="emb", right_on="emb", model=MODEL, top_k=3
        )
        response = service.submit(query, tag="cli/q1", explain_analyze=True)
    assert "planner.ejoin" in response.explain
    assert "engine.run" in response.explain
    # engine.run nests under the planner span, which nests under execute.
    for line in response.explain.splitlines():
        if "engine.run" in line:
            assert "morsels=" in line
    assert response.table.num_rows > 0


def test_plain_execute_still_returns_a_table(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_sample_rate=0.0) as service:
        table = service.submit(_query(service, query_vectors[3]), tag="cli/q1")
    assert table.num_rows == 5


def test_failed_query_trace_retires_with_status(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_sample_rate=1.0) as service:
        # Wrong query dimensionality: fails during execution, inside the
        # trace scope, not at build time.
        bad = service.engine.query("corpus").esimilar(
            "emb", query_vectors[0][: DIM // 2], model=MODEL, top_k=5
        )
        with pytest.raises(Exception):
            service.submit(bad, tag="cli/q1", explain_analyze=True)
        traces = service.recent_traces()
    assert traces, "failed query must still retire into the ring"
    assert traces[-1].status == "failed"
    assert traces[-1].error
