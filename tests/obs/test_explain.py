"""EXPLAIN ANALYZE end-to-end through the query service."""

from __future__ import annotations

import pytest
from _service_utils import DIM, MODEL

from repro.service import QueryService

pytestmark = pytest.mark.obs


def _query(service, qvec, *, top_k=5):
    return service.engine.query("corpus").esimilar(
        "emb", qvec, model=MODEL, top_k=top_k
    )


def test_explain_analyze_renders_the_span_tree(obs_engine, query_vectors):
    # obs disabled entirely: explain_analyze must still force a trace.
    with QueryService(obs_engine, obs_enabled=False) as service:
        with service.session("cli") as session:
            response = session.execute(
                _query(service, query_vectors[0]), explain_analyze=True
            )
    assert response.table.num_rows == 5
    assert response.query_id is not None
    text = response.explain
    lines = text.splitlines()
    assert lines[0].startswith(f"EXPLAIN ANALYZE {response.query_id} ")
    assert "tag=cli/q" in lines[0]
    assert "status=ok" in lines[0]
    for name in ("query", "admission", "plan.cache", "cache.lookup", "execute"):
        assert name in text, f"span {name!r} missing from:\n{text}"
    # The coalesced single query still records the shared scan + rescore.
    assert "coalesce.scan" in text
    assert "rescore" in text
    assert "ms wall" in text and "ms cpu" in text


def test_explain_analyze_shows_cache_hit(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_enabled=False) as service:
        with service.session("cli") as session:
            query = _query(service, query_vectors[1])
            first = session.execute(query, explain_analyze=True)
            second = session.execute(query, explain_analyze=True)
    assert "hit=false" in first.explain
    assert "hit=true" in second.explain
    assert second.query_id != first.query_id
    # A cache hit never reaches the engine: no execute span.
    assert "execute" not in second.explain


def test_explain_analyze_direct_path(obs_engine, query_vectors):
    with QueryService(obs_engine, coalesce=False, obs_enabled=False) as service:
        with service.session("cli") as session:
            response = session.execute(
                _query(service, query_vectors[2]), explain_analyze=True
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

    with QueryService(engine, obs_enabled=False) as service:
        with service.session("cli") as session:
            query = service.engine.query("corpus").ejoin(
                "other", left_on="emb", right_on="emb", model=MODEL, top_k=3
            )
            response = session.execute(query, explain_analyze=True)
    assert "planner.ejoin" in response.explain
    assert "engine.run" in response.explain
    # engine.run nests under the planner span, which nests under execute.
    for line in response.explain.splitlines():
        if "engine.run" in line:
            assert "morsels=" in line
    assert response.table.num_rows > 0


def test_plain_execute_still_returns_a_table(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_enabled=False) as service:
        with service.session("cli") as session:
            table = session.execute(_query(service, query_vectors[3]))
    assert table.num_rows == 5


def test_failed_query_trace_retires_with_status(obs_engine, query_vectors):
    with QueryService(obs_engine, obs_sample_rate=1.0) as service:
        with service.session("cli") as session:
            # Wrong query dimensionality: fails during execution, inside
            # the trace scope, not at build time.
            bad = service.engine.query("corpus").esimilar(
                "emb", query_vectors[0][: DIM // 2], model=MODEL, top_k=5
            )
            with pytest.raises(Exception):
                session.execute(bad, explain_analyze=True)
        traces = service.recent_traces()
    assert traces, "failed query must still retire into the ring"
    assert traces[-1].status == "failed"
    assert traces[-1].error
