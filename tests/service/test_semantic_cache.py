"""Semantic result cache: exact hits, near-dup hits, TTL, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.plan_cache import fingerprint
from repro.service.semantic_cache import SemanticResultCache, table_versions

from _service_utils import MODEL, assert_tables_equal, make_corpus_table, make_engine

pytestmark = pytest.mark.service


def _key_parts(engine, qvec, **cond):
    plan = engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).plan
    fkey, params = fingerprint(plan)
    return fkey, table_versions(plan, engine.catalog), params


def _result(engine, qvec, **cond):
    return (
        engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).execute()
    )


def test_exact_hit_returns_same_result(service_engine, query_vectors):
    cache = SemanticResultCache(capacity=8, ttl_s=60.0)
    q = query_vectors[0]
    fkey, versions, params = _key_parts(service_engine, q, top_k=5)
    assert cache.lookup(fkey, versions, params) is None
    result = _result(service_engine, q, top_k=5)
    cache.store(fkey, versions, params, result)
    hit = cache.lookup(fkey, versions, params)
    assert hit is result
    assert cache.stats.exact_hits == 1


def test_same_shape_different_vector_misses(service_engine, query_vectors):
    cache = SemanticResultCache(capacity=8, ttl_s=60.0)
    fkey, versions, params = _key_parts(service_engine, query_vectors[0], top_k=5)
    cache.store(fkey, versions, params, _result(service_engine, query_vectors[0], top_k=5))
    _, _, other_params = _key_parts(service_engine, query_vectors[1], top_k=5)
    assert cache.lookup(fkey, versions, other_params) is None


def test_nearby_vector_with_different_bits_misses(service_engine, query_vectors):
    q = query_vectors[0].astype(np.float32)
    nearby = q + np.float32(1e-4)  # cosine ~ 1.0 but different bits
    exact_only = SemanticResultCache(capacity=8, ttl_s=60.0)
    fkey, versions, params = _key_parts(service_engine, q, top_k=5)
    result = _result(service_engine, q, top_k=5)
    exact_only.store(fkey, versions, params, result)
    _, _, near_params = _key_parts(service_engine, nearby, top_k=5)
    assert exact_only.lookup(fkey, versions, near_params) is None


def test_ttl_expiry(service_engine, query_vectors, monkeypatch):
    import repro.service.semantic_cache as mod

    now = [1000.0]
    monkeypatch.setattr(mod.time, "monotonic", lambda: now[0])
    cache = SemanticResultCache(capacity=8, ttl_s=10.0)
    fkey, versions, params = _key_parts(service_engine, query_vectors[0], top_k=5)
    cache.store(fkey, versions, params, _result(service_engine, query_vectors[0], top_k=5))
    assert cache.lookup(fkey, versions, params) is not None
    now[0] += 11.0
    assert cache.lookup(fkey, versions, params) is None
    assert cache.stats.expirations == 1
    assert len(cache) == 0


def test_capacity_lru_eviction(service_engine, query_vectors):
    cache = SemanticResultCache(capacity=2, ttl_s=60.0)
    parts = [
        _key_parts(service_engine, query_vectors[i], top_k=5) for i in range(3)
    ]
    results = [_result(service_engine, query_vectors[i], top_k=5) for i in range(3)]
    cache.store(*parts[0], results[0])
    cache.store(*parts[1], results[1])
    assert cache.lookup(*parts[0]) is results[0]  # 0 is now most recent
    cache.store(*parts[2], results[2])  # evicts 1 (least recent)
    assert cache.lookup(*parts[1]) is None
    assert cache.lookup(*parts[0]) is results[0]
    assert cache.lookup(*parts[2]) is results[2]
    assert cache.stats.evictions == 1


def test_table_version_invalidates(service_engine, query_vectors):
    cache = SemanticResultCache(capacity=8, ttl_s=60.0)
    q = query_vectors[0]
    fkey, versions, params = _key_parts(service_engine, q, top_k=5)
    cache.store(fkey, versions, params, _result(service_engine, q, top_k=5))
    # Re-register the table: the version bump changes the key, so the
    # stale entry is unreachable.
    service_engine.catalog.register(
        "corpus", make_corpus_table(stream="svc-tests/v2"), replace=True
    )
    fkey2, versions2, params2 = _key_parts(service_engine, q, top_k=5)
    assert fkey2 == fkey and params2 is not None
    assert versions2 != versions
    assert cache.lookup(fkey2, versions2, params2) is None
    # Eager invalidation frees the stale entry.
    assert cache.invalidate_table("corpus") == 1
    assert len(cache) == 0


def test_precision_config_change_invalidates_service_cache(query_vectors):
    """Quantized scans are approximate for top-k, so results cached under
    one precision config must not be served after the config changes."""
    import repro.config as config_mod

    engine = make_engine()
    service = engine.serve(coalesce=False)
    builder = lambda: engine.query("corpus").esimilar(
        "emb", query_vectors[0], model=MODEL, top_k=4
    )
    service.submit(builder())
    service.submit(builder())
    assert service.stats.result_cache_hits == 1
    original = config_mod.get_config().default_precision
    config_mod.configure(default_precision="int8")
    try:
        refreshed = service.submit(builder())  # key changed: re-executes
        assert service.stats.result_cache_hits == 1
        serial = builder().execute()
        assert_tables_equal(refreshed, serial, context="post-config-change")
    finally:
        config_mod.configure(default_precision=original)


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
