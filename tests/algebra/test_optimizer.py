"""Unit tests for rewrite rules and the fixpoint optimizer."""

import pytest

from repro.algebra import (
    EJoinNode,
    EmbedNode,
    FilterNode,
    Optimizer,
    ProjectNode,
    ScanNode,
    walk,
)
from repro.algebra.optimizer import OptimizationTrace
from repro.algebra.rules import visible_columns
from repro.algebra.rules import PushFilterBelowEmbed, default_rules
from repro.algebra.rules import OrderEJoinInputs, PrefetchEmbeddings
from repro.core import ThresholdCondition, TopKCondition
from repro.relational import Catalog, Col


@pytest.fixture()
def catalog(people_table):
    cat = Catalog()
    cat.register("people", people_table)
    cat.register("people_big", people_table.concat_rows(people_table))
    return cat


def make_ejoin(left="people", right="people_big", condition=None):
    return EJoinNode(
        ScanNode(left),
        ScanNode(right),
        "name",
        "name",
        "m",
        condition or ThresholdCondition(0.9),
    )


class TestPushFilterBelowEmbed:
    def test_pushes_relational_predicate(self):
        plan = FilterNode(
            EmbedNode(ScanNode("t"), "text", "m"), Col("views") > 10
        )
        rewritten = PushFilterBelowEmbed().apply(plan)
        assert isinstance(rewritten, EmbedNode)
        assert isinstance(rewritten.child, FilterNode)

    def test_embedding_dependent_predicate_stays(self):
        embed = EmbedNode(ScanNode("t"), "text", "m", "vec")
        plan = FilterNode(embed, Col("vec") == 1)
        assert PushFilterBelowEmbed().apply(plan) is None

    def test_not_applicable_elsewhere(self):
        assert PushFilterBelowEmbed().apply(ScanNode("t")) is None


class TestPrefetchRule:
    def test_marks_ejoin(self):
        rewritten = PrefetchEmbeddings().apply(make_ejoin())
        assert rewritten.prefetch

    def test_idempotent(self):
        marked = PrefetchEmbeddings().apply(make_ejoin())
        assert PrefetchEmbeddings().apply(marked) is None


class TestOrderEJoinInputs:
    def test_swaps_larger_left(self, catalog):
        rule = OrderEJoinInputs(catalog)
        node = make_ejoin(left="people_big", right="people")
        # Already smaller-inner: marked but not swapped.
        result = rule.apply(node)
        assert result.left.table_name == "people_big"
        assert result.metadata["ordered"]

    def test_swaps_smaller_left(self, catalog):
        rule = OrderEJoinInputs(catalog)
        node = make_ejoin(left="people", right="people_big")
        result = rule.apply(node)
        assert result.left.table_name == "people_big"
        assert result.metadata["swapped"]

    def test_topk_not_reordered(self, catalog):
        rule = OrderEJoinInputs(catalog)
        node = make_ejoin(condition=TopKCondition(2))
        assert rule.apply(node) is None

    def test_index_hint_keeps_the_indexed_side_right(self, catalog):
        """The index lives on the right table; a swap would leave the
        planner nothing to probe."""
        rule = OrderEJoinInputs(catalog)
        node = make_ejoin(left="people", right="people_big")
        node = EJoinNode(
            node.left, node.right, node.left_column, node.right_column,
            node.model_name, node.condition, strategy_hint="index",
        )
        result = rule.apply(node)
        assert result.right.table_name == "people_big"
        assert result.strategy_hint == "index"
        assert result.metadata["ordered"] and "swapped" not in result.metadata
        assert rule.apply(result) is None


class TestVisibleColumns:
    def test_scan_from_catalog(self, catalog):
        cols = visible_columns(ScanNode("people"), catalog)
        assert cols == {"id", "name", "age", "score"}

    def test_project_restricts(self, catalog):
        plan = ProjectNode(ScanNode("people"), ("id",))
        assert visible_columns(plan, catalog) == {"id"}

    def test_embed_adds_output(self, catalog):
        plan = EmbedNode(ScanNode("people"), "name", "m", "vec")
        assert "vec" in visible_columns(plan, catalog)

    def test_ejoin_union(self, catalog):
        cols = visible_columns(make_ejoin(), catalog)
        assert "name" in cols and "age" in cols

    def test_unknown_without_catalog(self):
        assert visible_columns(ScanNode("t"), None) is None


class TestOptimizer:
    def test_fixpoint_reached(self, catalog):
        plan = FilterNode(make_ejoin(), Col("age") > 30)
        optimizer = Optimizer(catalog=catalog)
        out = optimizer.optimize(plan)
        # Running again changes nothing.
        assert optimizer.optimize(out) == out

    def test_prefetch_applied_everywhere(self, catalog):
        plan = FilterNode(make_ejoin(), Col("age") > 30)
        out = Optimizer(catalog=catalog).optimize(plan)
        joins = [n for n in walk(out) if isinstance(n, EJoinNode)]
        assert joins and all(j.prefetch for j in joins)

    def test_single_side_filter_pushed_into_join(self, catalog):
        # Predicate on 'age' exists on both sides (same schema) -> ambiguous,
        # must NOT be pushed.
        plan = FilterNode(make_ejoin(), Col("age") > 30)
        out = Optimizer(catalog=catalog).optimize(plan)
        assert isinstance(out, FilterNode)

    def test_unambiguous_filter_pushed(self, catalog, people_table):
        catalog.register("other", people_table.rename({"age": "years"}))
        plan = FilterNode(
            EJoinNode(
                ScanNode("people"),
                ScanNode("other"),
                "name",
                "name",
                "m",
                ThresholdCondition(0.9),
            ),
            Col("years") > 30,
        )
        out = Optimizer(catalog=catalog).optimize(plan)
        assert isinstance(out, EJoinNode)
        assert isinstance(out.right, FilterNode) or isinstance(
            out.left, FilterNode
        )

    def test_trace_records_rewrites(self, catalog):
        trace = OptimizationTrace()
        Optimizer(catalog=catalog).optimize(make_ejoin(), trace)
        assert any("prefetch" in s for s in trace.steps)

    def test_each_call_keeps_its_own_trace(self, catalog):
        """One optimizer serves many calls: a call's trace holds its own
        rewrites only, and the optimizer keeps none."""
        optimizer = Optimizer(catalog=catalog)
        first, second = OptimizationTrace(), OptimizationTrace()
        optimizer.optimize(make_ejoin(), first)
        optimizer.optimize(ScanNode("people"), second)
        assert first.steps and second.steps == []
        assert not hasattr(optimizer, "trace")

    def test_filter_below_embed_end_to_end(self, catalog):
        plan = FilterNode(
            EmbedNode(ScanNode("people"), "name", "m", "vec"),
            Col("age") > 30,
        )
        out = Optimizer(catalog=catalog).optimize(plan)
        assert isinstance(out, EmbedNode)
        assert isinstance(out.child, FilterNode)

    def test_custom_rule_list(self):
        optimizer = Optimizer(rules=[])
        plan = make_ejoin()
        assert optimizer.optimize(plan) == plan

    def test_default_rules_with_catalog(self, catalog):
        rules = default_rules(catalog)
        assert any(isinstance(r, OrderEJoinInputs) for r in rules)
        assert len(default_rules(None)) == len(rules) - 1
