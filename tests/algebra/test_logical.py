"""Unit tests for logical plan nodes."""

import pytest

from repro.algebra import (
    EJoinNode,
    EmbedNode,
    EquiJoinNode,
    FilterNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    walk,
)
from repro.core import ThresholdCondition
from repro.errors import PlanError
from repro.relational import Col


def make_ejoin() -> EJoinNode:
    return EJoinNode(
        ScanNode("feed"),
        ScanNode("words"),
        "text",
        "word",
        "model",
        ThresholdCondition(0.9),
    )


class TestNodes:
    def test_scan_no_children(self):
        node = ScanNode("t")
        assert node.children() == []
        with pytest.raises(PlanError):
            node.with_children([ScanNode("x")])

    def test_filter_structure(self):
        node = FilterNode(ScanNode("t"), Col("x") > 1)
        assert len(node.children()) == 1
        replaced = node.with_children([ScanNode("u")])
        assert replaced.child.table_name == "u"
        assert replaced.predicate is node.predicate

    def test_project_limit(self):
        plan = LimitNode(ProjectNode(ScanNode("t"), ("a", "b")), 5)
        assert "Limit(5)" in plan.describe()
        assert plan.children()[0].names == ("a", "b")

    def test_embed_default_output_column(self):
        node = EmbedNode(ScanNode("t"), "text", "m")
        assert node.output_column == "__emb_text"

    def test_embed_custom_output(self):
        node = EmbedNode(ScanNode("t"), "text", "m", "vec")
        assert node.output_column == "vec"

    def test_equijoin_children(self):
        node = EquiJoinNode(ScanNode("a"), ScanNode("b"), "x", "y")
        swapped = node.with_children([ScanNode("b"), ScanNode("a")])
        assert swapped.left.table_name == "b"

    def test_ejoin_describe_flags(self):
        node = make_ejoin()
        assert "prefetch" not in node.describe()
        on = EJoinNode(
            node.left, node.right, "text", "word", "model",
            node.condition, prefetch=True, strategy_hint="tensor",
        )
        assert "prefetch" in on.describe()
        assert "strategy=tensor" in on.describe()


class TestTraversal:
    def test_walk_preorder(self):
        plan = FilterNode(make_ejoin(), Col("x") > 1)
        kinds = [type(n).__name__ for n in walk(plan)]
        assert kinds == ["FilterNode", "EJoinNode", "ScanNode", "ScanNode"]

    def test_explain_indented(self):
        text = FilterNode(ScanNode("t"), Col("x") > 1).explain()
        lines = text.splitlines()
        assert lines[0].startswith("Filter")
        assert lines[1].startswith("  Scan")

    def test_plan_equality(self):
        assert make_ejoin() == make_ejoin()
        other = EJoinNode(
            ScanNode("feed"), ScanNode("words"), "text", "word", "model",
            ThresholdCondition(0.8),
        )
        assert make_ejoin() != other
