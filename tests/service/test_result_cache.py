"""Result cache: exact hits, TTL, LRU, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.plan_cache import fingerprint
from repro.service.result_cache import (
    ResultCache,
    params_signature,
    table_versions,
)

from _service_utils import MODEL, assert_tables_equal, make_corpus_table, make_engine

pytestmark = pytest.mark.service


def _key(engine, qvec, **cond):
    """The cache key as the service builds it: shape, versions, payload."""
    plan = engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).plan
    fkey, params, tables = fingerprint(plan)
    return fkey, table_versions(tables, engine.catalog), params_signature(params)


def _result(engine, qvec, **cond):
    return (
        engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).execute()
    )


def test_exact_hit_returns_same_result(service_engine, query_vectors):
    cache = ResultCache(capacity=8, ttl_s=60.0)
    q = query_vectors[0]
    key = _key(service_engine, q, top_k=5)
    assert cache.lookup(key) is None
    result = _result(service_engine, q, top_k=5)
    cache.store(key, result)
    hit = cache.lookup(key)
    assert hit is result
    assert cache.stats.exact_hits == 1


def test_same_shape_different_vector_misses(service_engine, query_vectors):
    cache = ResultCache(capacity=8, ttl_s=60.0)
    key = _key(service_engine, query_vectors[0], top_k=5)
    cache.store(key, _result(service_engine, query_vectors[0], top_k=5))
    other = _key(service_engine, query_vectors[1], top_k=5)
    assert other[:2] == key[:2]
    assert cache.lookup(other) is None


def test_nearby_vector_with_different_bits_misses(service_engine, query_vectors):
    q = query_vectors[0].astype(np.float32)
    nearby = q + np.float32(1e-4)  # cosine ~ 1.0 but different bits
    exact_only = ResultCache(capacity=8, ttl_s=60.0)
    exact_only.store(_key(service_engine, q, top_k=5), _result(service_engine, q, top_k=5))
    assert exact_only.lookup(_key(service_engine, nearby, top_k=5)) is None


def test_ttl_expiry(service_engine, query_vectors, monkeypatch):
    import repro.service.result_cache as mod

    now = [1000.0]
    monkeypatch.setattr(mod.time, "monotonic", lambda: now[0])
    cache = ResultCache(capacity=8, ttl_s=10.0)
    key = _key(service_engine, query_vectors[0], top_k=5)
    cache.store(key, _result(service_engine, query_vectors[0], top_k=5))
    assert cache.lookup(key) is not None
    now[0] += 11.0
    assert cache.lookup(key) is None
    assert cache.stats.expirations == 1
    assert len(cache) == 0


def test_capacity_lru_eviction(service_engine, query_vectors):
    cache = ResultCache(capacity=2, ttl_s=60.0)
    keys = [_key(service_engine, query_vectors[i], top_k=5) for i in range(3)]
    results = [_result(service_engine, query_vectors[i], top_k=5) for i in range(3)]
    cache.store(keys[0], results[0])
    cache.store(keys[1], results[1])
    assert cache.lookup(keys[0]) is results[0]  # 0 is now most recent
    cache.store(keys[2], results[2])  # evicts 1 (least recent)
    assert cache.lookup(keys[1]) is None
    assert cache.lookup(keys[0]) is results[0]
    assert cache.lookup(keys[2]) is results[2]
    assert cache.stats.evictions == 1


def test_table_version_invalidates(service_engine, query_vectors):
    cache = ResultCache(capacity=8, ttl_s=60.0)
    q = query_vectors[0]
    key = _key(service_engine, q, top_k=5)
    cache.store(key, _result(service_engine, q, top_k=5))
    # Re-register the table: the version bump changes the key, so the
    # stale entry is unreachable.
    service_engine.catalog.register(
        "corpus", make_corpus_table(stream="svc-tests/v2"), replace=True
    )
    key2 = _key(service_engine, q, top_k=5)
    assert key2[0] == key[0] and key2[2] == key[2]
    assert key2[1] != key[1]
    assert cache.lookup(key2) is None
    # Eager invalidation frees the stale entry.
    assert cache.invalidate_table("corpus") == 1
    assert len(cache) == 0


@pytest.mark.parametrize("method", ["int8", "pq"])
def test_strategy_hint_separates_cached_joins(method):
    """What a scan reads is named by the plan's strategy hint, so it is
    part of the result-cache key: a hinted code join and the fp32 join of
    the same shape are cached apart, each hit its own serial answer."""
    engine = make_engine()
    service = engine.serve(coalesce=False)

    def join(strategy):
        return engine.query("other").ejoin(
            "corpus", left_on="emb", right_on="emb", model=MODEL, top_k=3,
            strategy=strategy,
        )

    for hits, strategy in enumerate((None, f"tensor-{method}")):
        service.submit(join(strategy))
        assert service.stats.result_cache_hits == hits  # the other one missed
        cached = service.submit(join(strategy))
        assert service.stats.result_cache_hits == hits + 1
        assert_tables_equal(cached, join(strategy).execute(), context=strategy or "tensor")


def test_service_level_cache_correctness(query_vectors):
    """End-to-end: cached service results equal fresh serial execution,
    and invalidation by re-registration yields the new data's results."""
    engine = make_engine()
    service = engine.serve(coalesce=False)
    q = query_vectors[0]

    def run():
        with service.session() as session:
            return session.execute(
                session.query("corpus").esimilar("emb", q, model=MODEL, top_k=4)
            )

    first, second = run(), run()
    assert service.stats.result_cache_hits == 1
    assert_tables_equal(first, second, context="cache hit")

    engine.catalog.register(
        "corpus", make_corpus_table(stream="svc-tests/regen"), replace=True
    )
    refreshed = run()
    serial = (
        engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=4).execute()
    )
    assert_tables_equal(refreshed, serial, context="post-invalidation")
