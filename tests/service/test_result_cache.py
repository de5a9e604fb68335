"""Result cache: exact hits, TTL, LRU, invalidation, and the plan
fingerprint its key is built from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.algebra.logical import LogicalNode
from repro.relational.expressions import Expression
from repro.service.result_cache import (
    ResultCache,
    fingerprint,
    params_signature,
    structure,
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


@pytest.mark.parametrize("hint", ["tensor-int8", "parallel-tensor"], ids=["int8", "parallel-tensor"])
def test_strategy_hint_separates_cached_joins(hint):
    """What a scan reads, and on how many workers, is named by the plan's
    strategy hint, so it is part of the result-cache key: a hinted code or
    threaded join and the unhinted join of the same shape are cached
    apart, each hit its own serial answer."""
    engine = make_engine()
    service = engine.serve(coalesce=False)

    def join(strategy):
        return engine.query("other").ejoin(
            "corpus", left_on="emb", right_on="emb", model=MODEL, top_k=3,
            strategy=strategy,
        )

    for hits, strategy in enumerate((None, hint)):
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
        return service.submit(
            engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=4)
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


# ----------------------------------------------------------------------
# The plan fingerprint the key is built from
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Maybe(LogicalNode):
    """A node shape no current class has: optional child, optional predicate."""

    child: LogicalNode | None
    where: Expression | None = None
    tag: str = ""

    def children(self):
        return [] if self.child is None else [self.child]


def _topk_plan(engine, qvec, k=5):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=k).plan


def test_same_shape_same_fingerprint(service_engine, query_vectors):
    key_a, params_a, tables_a = fingerprint(
        _topk_plan(service_engine, query_vectors[0])
    )
    key_b, params_b, tables_b = fingerprint(
        _topk_plan(service_engine, query_vectors[1])
    )
    assert key_a == key_b
    assert not np.array_equal(params_a[0], params_b[0])
    assert tables_a == tables_b == ("corpus",)


def test_different_shapes_different_fingerprints(service_engine, query_vectors):
    q = query_vectors[0]
    top5 = _topk_plan(service_engine, q, k=5)
    top9 = _topk_plan(service_engine, q, k=9)
    threshold = (
        service_engine.query("corpus")
        .esimilar("emb", q, model=MODEL, threshold=0.3)
        .plan
    )
    keys = {fingerprint(p)[0] for p in (top5, top9, threshold)}
    assert len(keys) == 3


def test_filter_constants_are_part_of_the_shape(service_engine, query_vectors):
    from repro.relational import Col

    q = query_vectors[0]
    plan_a = (
        service_engine.query("corpus")
        .where(Col("id") > 10)
        .esimilar("emb", q, model=MODEL, top_k=3)
        .plan
    )
    plan_b = (
        service_engine.query("corpus")
        .where(Col("id") > 99)
        .esimilar("emb", q, model=MODEL, top_k=3)
        .plan
    )
    assert fingerprint(plan_a)[0] != fingerprint(plan_b)[0]


def test_score_column_is_part_of_the_shape(service_engine, query_vectors):
    """``explain()`` leaves ``score_column`` out, so a key made of it let two
    queries that differ only there share a cached answer — and the second
    answer carried the first one's column name."""
    q = query_vectors[0]
    plans = [
        service_engine.query("corpus")
        .esimilar("emb", q, model=MODEL, top_k=3, score_column=name)
        .plan
        for name in ("similarity", "score")
    ]
    assert plans[0].explain() == plans[1].explain()  # the display string cannot tell
    assert fingerprint(plans[0])[0] != fingerprint(plans[1])[0]


def test_every_node_field_reaches_the_key():
    """Each compared field of each logical node class changes the key when
    it alone changes, and the key holds no node and no expression object
    (nodes hash a predicate by identity; the key must not)."""
    from dataclasses import fields, replace

    from repro.algebra import logical
    from repro.core.conditions import ThresholdCondition, TopKCondition
    from repro.relational import Col

    scan = logical.ScanNode("t")
    samples = [
        scan,
        logical.FilterNode(scan, Col("a") > 1),
        logical.ProjectNode(scan, ("a", "b")),
        logical.LimitNode(scan, 3),
        logical.EmbedNode(scan, "a", "m", "a_vec"),
        logical.ESelectNode(scan, "a", "q", "m", TopKCondition(2), "s"),
        logical.EquiJoinNode(scan, scan, "a", "b"),
        logical.EJoinNode(scan, scan, "a", "b", "m", TopKCondition(2), True, "tensor"),
    ]
    covered = {type(node) for node in samples}
    assert covered == {
        cls
        for cls in vars(logical).values()
        if isinstance(cls, type)
        and issubclass(cls, logical.LogicalNode)
        and cls is not logical.LogicalNode
    }
    other = {
        str: "zz",
        int: 99,
        bool: False,
        tuple: ("z",),
        TopKCondition: ThresholdCondition(0.5),
        logical.ScanNode: logical.ScanNode("u"),
    }

    def flat(key):
        for part in key:
            yield from flat(part) if isinstance(part, tuple) else (part,)

    for node in samples:
        key = structure(node)
        hash(key)
        assert not any(
            isinstance(p, (logical.LogicalNode, Expression)) for p in flat(key)
        )
        assert structure(replace(node)) == key
        for f in fields(node):
            if not f.compare:
                continue
            value = getattr(node, f.name)
            changed = (
                Col("a") > 2 if isinstance(value, Expression) else other[type(value)]
            )
            assert structure(replace(node, **{f.name: changed})) != key, (
                type(node).__name__,
                f.name,
            )


def test_optional_child_and_predicate_fields_are_classified_by_type():
    """A node field typed ``LogicalNode | None`` is a child (kept out of the
    node's own part) and one typed ``Expression | None`` enters by ``repr``
    — whatever the annotation's spelling."""
    from repro.algebra.logical import ScanNode
    from repro.relational import Col

    bare = structure(_Maybe(None))
    assert bare == ("_Maybe", ("None", ""))
    full = structure(_Maybe(ScanNode("t"), Col("a") > 1, "x"))
    assert full == ("_Maybe", (repr(Col("a") > 1), "x"), ("ScanNode", "t"))
    assert full == structure(_Maybe(ScanNode("t"), Col("a") > 1, "x"))
    assert full != structure(_Maybe(ScanNode("t"), Col("a") > 2, "x"))


_BASE = dict(column="emb", model=MODEL, top_k=4, min_similarity=None,
             score_column="similarity")
_VARIANTS = [
    {},
    {"top_k": 6},
    {"min_similarity": 0.1},
    {"score_column": "score"},
    {"top_k": None, "threshold": 0.2},
    {"top_k": None, "threshold": 0.2, "score_column": "score"},
]
_SHAPES = [
    dict(),
    dict(where=50),
    dict(where=120),
    dict(limit=2),
    dict(select=["id"]),
]


def _build(engine, overrides, qvec, *, where=None, select=None, limit=None):
    from repro.relational import Col

    options = {**_BASE, **overrides}
    builder = engine.query("corpus")
    if where is not None:
        builder = builder.where(Col("id") >= where)
    builder = builder.esimilar(options.pop("column"), qvec, **options)
    if select is not None:
        builder = builder.select(select)
    if limit is not None:
        builder = builder.limit(limit)
    return builder


def _every_builder_option():
    """``(overrides, shape)``: one base query, each option varied alone."""
    for overrides in _VARIANTS:
        for shape in _SHAPES:
            if "select" in shape and overrides.get("score_column"):
                continue
            yield overrides, shape


def _payloads_by_position(node, positions):
    """``node`` with each E-selection payload replaced by its position
    among the plan's payloads (pre-order)."""
    from dataclasses import replace

    from repro.algebra.logical import ESelectNode

    if isinstance(node, ESelectNode):
        node = replace(node, query=next(positions))
    children = node.children()
    if not children:
        return node
    return node.with_children(
        [_payloads_by_position(child, positions) for child in children]
    )


def test_one_walk_yields_the_parameterized_key(service_engine, query_vectors):
    """``fingerprint``'s key is the ``structure`` of the plan with each
    E-selection payload replaced by its position, its payloads are the
    plan's in that order, and its tables are the plan's scans — for every
    builder option, for two E-selections in one plan, and across a join.
    The same plans over other payloads key alike."""
    import itertools

    from repro.algebra.logical import ESelectNode, ScanNode, walk

    def plans(q0, q1):
        built = [
            _build(service_engine, overrides, q0, **shape).plan
            for overrides, shape in _every_builder_option()
        ]
        twice = (
            service_engine.query("corpus")
            .esimilar("emb", q0, model=MODEL, top_k=9, score_column="s0")
            .esimilar("emb", q1, model=MODEL, top_k=3, score_column="s1")
        )
        joined = twice.join(
            service_engine.query("other").esimilar("emb", q1, model=MODEL, top_k=5),
            left_on="id",
            right_on="id",
        )
        return built + [twice.plan, joined.plan]

    q0, q1 = query_vectors[:2]
    for plan, swapped in zip(plans(q0, q1), plans(q1, q0)):
        shape = fingerprint(plan)
        assert shape.key == structure(
            _payloads_by_position(plan, itertools.count())
        ), plan.explain()
        payloads = [n.query for n in walk(plan) if isinstance(n, ESelectNode)]
        assert len(shape.params) == len(payloads)
        assert all(a is b for a, b in zip(shape.params, payloads))
        assert shape.tables == tuple(
            sorted({n.table_name for n in walk(plan) if isinstance(n, ScanNode)})
        )
        hash(shape.key)
        assert fingerprint(swapped).key == shape.key
    twice, joined = plans(q0, q1)[-2:]
    assert len(fingerprint(twice).params) == 2
    assert fingerprint(joined).tables == ("corpus", "other")


def test_cached_results_equal_uncached_for_every_builder_option(query_vectors):
    """Differential: one base query, each builder option varied one at a
    time; a service with a result cache must answer every variant exactly
    as an uncached engine does — name of the score column included.  The
    result cache answers the second round; the third brings a new payload
    of every shape."""
    from repro.service import QueryService

    reference = make_engine()
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    # Rounds 0-1 repeat one payload (round 1: result-cache hits); round 2
    # brings a new payload of every shape.
    for round_, qvec in enumerate(query_vectors[[0, 0, 1]]):
        for i, (overrides, shape) in enumerate(_every_builder_option()):
            got = service.submit(
                _build(engine, overrides, qvec, **shape),
                tag=f"differential/q{round_}-{i}",
            )
            want = _build(reference, overrides, qvec, **shape).execute()
            assert_tables_equal(
                got, want, context=f"round {round_} {overrides} {shape}"
            )
    snapshot = service.stats_snapshot()
    hits = snapshot["result_cache"]["exact_hits"]
    assert snapshot["result_cache"]["misses"] == 2 * hits > 0
    assert snapshot["service"]["completed"] == 3 * hits
