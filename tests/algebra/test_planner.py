"""Unit tests for physical planning and execution."""

import pytest

from repro.algebra import (
    EJoinNode,
    EmbedNode,
    EquiJoinNode,
    ExecutionContext,
    ExecutionReport,
    FilterNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    execute,
)
from repro.core import ThresholdCondition, TopKCondition
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.errors import PlanError
from repro.index import FlatIndex
from repro.relational import Catalog, Col, DataType
from repro.workloads import generate_dirty_strings


@pytest.fixture()
def ctx():
    wl = generate_dirty_strings(n_feed=60, seed=91)
    catalog = Catalog()
    catalog.register("words", wl.catalog)
    catalog.register("feed", wl.feed)
    models = ModelRegistry()
    models.register("hash", HashingEmbedder(dim=24, seed=92))
    return ExecutionContext(catalog, models=models)


class TestRelationalNodes:
    def test_scan(self, ctx):
        out = execute(ScanNode("feed"), ctx)
        assert out.num_rows == 60

    def test_filter(self, ctx):
        out = execute(FilterNode(ScanNode("feed"), Col("views") > 5000), ctx)
        assert (out.array("views") > 5000).all()

    def test_project(self, ctx):
        out = execute(ProjectNode(ScanNode("feed"), ("text",)), ctx)
        assert out.schema.names == ("text",)

    def test_limit(self, ctx):
        out = execute(LimitNode(ScanNode("feed"), 7), ctx)
        assert out.num_rows == 7

    def test_equijoin(self, ctx):
        plan = EquiJoinNode(ScanNode("feed"), ScanNode("words"), "text", "word")
        out = execute(plan, ctx)
        # Exact matches exist in the generated feed.
        assert out.num_rows > 0

    def test_unknown_node(self, ctx):
        class Mystery(ScanNode):
            pass

        # ScanNode subclass still executes; a truly unknown node raises.
        class Unknown:
            def children(self):
                return []

        with pytest.raises(PlanError):
            execute(Unknown(), ctx)


class TestEmbedNode:
    def test_adds_tensor_column(self, ctx):
        out = execute(EmbedNode(ScanNode("feed"), "text", "hash", "vec"), ctx)
        field = out.schema.field("vec")
        assert field.dtype is DataType.TENSOR
        assert field.dim == 24

    def test_embed_once_across_query(self, ctx):
        """Shared store: repeated strings are embedded once."""
        execute(EmbedNode(ScanNode("feed"), "text", "hash", "v1"), ctx)
        calls_first = ctx.models.get("hash").usage.calls
        execute(EmbedNode(ScanNode("feed"), "text", "hash", "v2"), ctx)
        assert ctx.models.get("hash").usage.calls == calls_first


class TestEJoinExecution:
    def make_join(self, prefetch=True, condition=None, strategy=None):
        return EJoinNode(
            ScanNode("feed"),
            ScanNode("words"),
            "text",
            "word",
            "hash",
            condition or TopKCondition(1),
            prefetch=prefetch,
            strategy_hint=strategy,
        )

    def test_scan_path(self, ctx):
        report = ExecutionReport()
        out = execute(self.make_join(), ctx, report=report)
        assert out.num_rows == 60  # top-1 per feed row
        assert "similarity" in out.schema
        assert report.strategies == ["tensor"]

    def test_naive_path_matches_prefetch(self, ctx):
        cond = ThresholdCondition(0.95)
        fast = execute(self.make_join(prefetch=True, condition=cond), ctx)
        slow = execute(self.make_join(prefetch=False, condition=cond), ctx)
        key = lambda t: sorted(
            zip(t.array("text").tolist(), t.array("word").tolist())
        )
        assert key(fast) == key(slow)

    def test_index_path(self, ctx):
        # Register a flat (exact) index over the words column.
        store_model = ctx.models.get("hash")
        words = ctx.catalog.get("words").array("word").tolist()
        index = FlatIndex(store_model.dim)
        index.add(store_model.embed_batch(words))
        ctx.register_index("words", "word", index)

        report = ExecutionReport()
        out = execute(self.make_join(strategy="index"), ctx, report=report)
        assert report.strategies == ["index/flatindex"]
        scan = execute(self.make_join(strategy="tensor"), ctx)
        key = lambda t: sorted(
            zip(t.array("text").tolist(), t.array("word").tolist())
        )
        assert key(out) == key(scan)

    def test_index_path_with_prefilter(self, ctx):
        model = ctx.models.get("hash")
        words_table = ctx.catalog.get("words")
        index = FlatIndex(model.dim)
        index.add(model.embed_batch(words_table.array("word").tolist()))
        ctx.register_index("words", "word", index)

        join = EJoinNode(
            ScanNode("feed"),
            FilterNode(ScanNode("words"), Col("id") < 10),
            "text",
            "word",
            "hash",
            TopKCondition(1),
            prefetch=True,
            strategy_hint="index",
        )
        out = execute(join, ctx)
        # All matched words must come from the pre-filtered id range.
        matched_ids = {
            words_table.array("word").tolist().index(w)
            for w in out.array("word").tolist()
        }
        assert all(i < 10 for i in matched_ids)

    def test_optimized_index_threshold_join_probes_the_larger_table(self, ctx):
        """Regression: the smaller-inner rewrite swapped a threshold join
        hinted onto the index away from the (larger) table that has it,
        and planning raised PlanError."""
        from repro.algebra import Optimizer

        small = ctx.catalog.get("feed").take(list(range(20)))
        ctx.catalog.register("feed_small", small)
        model = ctx.models.get("hash")
        words = ctx.catalog.get("words").array("word").tolist()
        assert len(words) > small.num_rows
        index = FlatIndex(model.dim)
        index.add(model.embed_batch(words))
        ctx.register_index("words", "word", index)
        plan = EJoinNode(
            ScanNode("feed_small"), ScanNode("words"), "text", "word", "hash",
            ThresholdCondition(0.8), strategy_hint="index",
        )
        report = ExecutionReport()
        out = execute(Optimizer(catalog=ctx.catalog).optimize(plan), ctx, report=report)
        assert report.strategies == ["index/flatindex"]
        scan = execute(
            EJoinNode(
                ScanNode("feed_small"), ScanNode("words"), "text", "word",
                "hash", ThresholdCondition(0.8), strategy_hint="tensor",
            ),
            ctx,
        )
        key = lambda t: sorted(zip(t.array("text").tolist(), t.array("word").tolist()))
        assert out.num_rows > 0 and set(key(out)) <= set(key(scan))

    def test_index_hint_without_index_raises(self, ctx):
        with pytest.raises(PlanError, match="registered index"):
            execute(self.make_join(strategy="index"), ctx)

    def test_auto_access_path_prefers_scan_when_filtered(self, ctx):
        model = ctx.models.get("hash")
        words_table = ctx.catalog.get("words")
        index = FlatIndex(model.dim)
        index.add(model.embed_batch(words_table.array("word").tolist()))
        ctx.register_index("words", "word", index)
        join = EJoinNode(
            ScanNode("feed"),
            FilterNode(ScanNode("words"), Col("id") < 3),  # very selective
            "text",
            "word",
            "hash",
            TopKCondition(1),
            prefetch=True,
        )
        report = ExecutionReport()
        execute(join, ctx, report=report)
        assert report.strategies[0] == "tensor"
