"""Regression gate: tracing that samples *out* must cost (almost) nothing.

Two identical services run the same queries interleaved — one with
observability disabled, one enabled at a sampling rate that never fires —
and the sampled-out median must stay within a few percent of the
disabled median.  The interleaving (alternating which service goes first
each round) cancels cache/thermal drift; the absolute slack term absorbs
timer granularity on sub-millisecond queries.
"""

from __future__ import annotations

import statistics
import time

import pytest
from _service_utils import DIM, MODEL, make_corpus_table

from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog
from repro.service import QueryService
from repro.workloads import unit_vectors

pytestmark = pytest.mark.obs

N_ROWS = 4000  # large enough that one query costs ≳ 1 ms
ROUNDS = 40
WARMUP = 8


def _make_engine():
    catalog = Catalog()
    catalog.register("corpus", make_corpus_table(N_ROWS, stream="obs-tests/ovh"))
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def _timed_submit(service, qvec):
    query = service.engine.query("corpus").esimilar(
        "emb", qvec, model=MODEL, top_k=10
    )
    t0 = time.perf_counter()
    service.submit(query)
    return time.perf_counter() - t0


@pytest.mark.perf
def test_sampled_out_tracing_overhead_under_three_percent():
    engine = _make_engine()
    vectors = unit_vectors(16, DIM, stream="obs-tests/ovh-queries")
    common = dict(coalesce=False, result_cache_size=0)
    with QueryService(engine, obs_enabled=False, **common) as off:
        with QueryService(
            engine, obs_enabled=True, obs_sample_rate=1e-6, **common
        ) as sampled:
            for i in range(WARMUP):
                _timed_submit(off, vectors[i % len(vectors)])
                _timed_submit(sampled, vectors[i % len(vectors)])
            lat_off, lat_sampled = [], []
            for i in range(ROUNDS):
                qvec = vectors[i % len(vectors)]
                pairs = [(off, lat_off), (sampled, lat_sampled)]
                if i % 2:
                    pairs.reverse()
                for svc, out in pairs:
                    out.append(_timed_submit(svc, qvec))
            # Every submission went down the sampled-out path: considered
            # but never traced.
            assert sampled.tracer.considered == WARMUP + ROUNDS
            assert sampled.tracer.sampled == 0
            assert not sampled.recent_traces()

    p50_off = statistics.median(lat_off)
    p50_sampled = statistics.median(lat_sampled)
    assert p50_sampled <= p50_off * 1.03 + 2e-4, (
        f"sampled-out tracing overhead too high: "
        f"off p50={p50_off * 1e3:.3f} ms, sampled p50={p50_sampled * 1e3:.3f} ms"
    )


def test_sampled_out_path_traces_nothing():
    """The deterministic half of the gate above, in tier-1."""
    engine = _make_engine()
    vectors = unit_vectors(4, DIM, stream="obs-tests/ovh-sampled-out")
    with QueryService(
        engine,
        coalesce=False,
        result_cache_size=0,
        obs_enabled=True,
        obs_sample_rate=1e-6,
    ) as service:
        for qvec in vectors:
            _timed_submit(service, qvec)
        assert service.tracer.considered == len(vectors)
        assert service.tracer.sampled == 0
        assert not service.recent_traces()


def test_full_tracing_produces_complete_traces():
    engine = _make_engine()
    vectors = unit_vectors(4, DIM, stream="obs-tests/ovh-full")
    with QueryService(
        engine,
        coalesce=False,
        result_cache_size=0,
        obs_enabled=True,
        obs_sample_rate=1.0,
    ) as service:
        for qvec in vectors:
            _timed_submit(service, qvec)
        traces = service.recent_traces()
    assert len(traces) == len(vectors)
    for trace in traces:
        assert trace.status == "ok"
        names = {s.name for s in trace.spans}
        assert {"query", "admission", "cache.lookup", "execute"} <= names
