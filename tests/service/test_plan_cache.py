"""Plan cache: parameterized fingerprints and template substitution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.algebra.logical import LogicalNode
from repro.algebra.optimizer import Optimizer
from repro.relational.expressions import Expression
from repro.service.plan_cache import PlanCache, fingerprint, parameterize, substitute

from _service_utils import MODEL

pytestmark = pytest.mark.service


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


def test_parameterize_substitute_roundtrip(service_engine, query_vectors):
    plan = _topk_plan(service_engine, query_vectors[0])
    template, params = parameterize(plan)
    assert len(params) == 1
    rebuilt = substitute(template, params)
    assert rebuilt == plan or rebuilt.explain() == plan.explain()


def test_cached_optimization_matches_direct(service_engine, query_vectors):
    cache = PlanCache(capacity=8)
    catalog = service_engine.catalog
    for qvec in query_vectors[:4]:
        plan = _topk_plan(service_engine, qvec)
        via_cache = cache.optimize(plan, catalog=catalog)
        direct = Optimizer(catalog=catalog).optimize(plan)
        assert via_cache.explain() == direct.explain()
    assert cache.stats.misses == 1
    assert cache.stats.hits == 3


def test_capacity_eviction(service_engine, query_vectors):
    cache = PlanCache(capacity=2)
    catalog = service_engine.catalog
    q = query_vectors[0]
    for k in (1, 2, 3, 4):
        cache.optimize(_topk_plan(service_engine, q, k=k), catalog=catalog)
    assert len(cache) == 2
    assert cache.stats.evictions == 2


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
    queries that differ only there share a plan — and the second answer
    carried the first one's column name."""
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
    from repro.relational.expressions import Expression
    from repro.service.plan_cache import structure

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
    from repro.service.plan_cache import structure

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


def test_one_walk_yields_the_parameterized_key(service_engine, query_vectors):
    """``fingerprint`` builds no template, yet its key is the structure of
    the one ``parameterize`` builds, its payloads are that template's, in
    order, and its tables are the plan's scans — for every builder option,
    for two E-selections in one plan, and across a join."""
    from repro.algebra.logical import ScanNode, walk
    from repro.service.plan_cache import structure

    q0, q1 = query_vectors[:2]
    plans = [
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
    plans += [twice.plan, joined.plan]
    for plan in plans:
        template, params = parameterize(plan)
        shape = fingerprint(plan)
        assert shape.key == structure(template), plan.explain()
        assert len(shape.params) == len(params)
        assert all(a is b for a, b in zip(shape.params, params))
        assert shape.tables == tuple(
            sorted({n.table_name for n in walk(plan) if isinstance(n, ScanNode)})
        )
        hash(shape.key)
    assert len(fingerprint(twice.plan).params) == 2
    assert fingerprint(joined.plan).tables == ("corpus", "other")
    # A template keys as itself: nothing left to extract.
    template, _ = parameterize(joined.plan)
    assert fingerprint(template) == (structure(template), [], ("corpus", "other"))


def test_cached_results_equal_uncached_for_every_builder_option(query_vectors):
    """Differential: one base query, each builder option varied one at a
    time; a service with plan and result caches must answer every variant
    exactly as an uncached engine does — name of the score column
    included.  The result cache answers the second round; a second payload
    of each shape then reaches the plan cache's templates."""
    from repro.service import QueryService

    from _service_utils import assert_tables_equal, make_engine

    reference = make_engine()
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    with service.session("differential") as session:
        # Rounds 0-1 repeat one payload (round 1: result-cache hits, which
        # plan nothing); round 2 brings a new payload of every shape.
        for round_, qvec in enumerate(query_vectors[[0, 0, 1]]):
            for overrides, shape in _every_builder_option():
                got = session.execute(_build(engine, overrides, qvec, **shape))
                want = _build(reference, overrides, qvec, **shape).execute()
                assert_tables_equal(
                    got, want, context=f"round {round_} {overrides} {shape}"
                )
    snapshot = service.stats_snapshot()
    executed = snapshot["plan_cache"]["hits"] + snapshot["plan_cache"]["misses"]
    assert snapshot["plan_cache"]["hits"] == snapshot["plan_cache"]["misses"] > 0
    assert snapshot["result_cache"]["exact_hits"] == executed // 2
    assert snapshot["service"]["completed"] == 3 * executed // 2
