"""Unit tests for the declarative query builder."""

from datetime import date

import pytest

from repro.embedding import HashingEmbedder
from repro.errors import PlanError, SchemaError
from repro.index import FlatIndex
from repro.query import Engine
from repro.relational import Catalog, Col
from repro.workloads import generate_dirty_strings


@pytest.fixture()
def engine():
    wl = generate_dirty_strings(n_feed=80, seed=93)
    catalog = Catalog()
    catalog.register("words", wl.catalog)
    catalog.register("feed", wl.feed)
    eng = Engine(catalog)
    eng.models.register("hash", HashingEmbedder(dim=24, seed=94))
    return eng


class TestConstruction:
    def test_unknown_table_rejected_early(self, engine):
        with pytest.raises(SchemaError):
            engine.query("nope")

    def test_ejoin_requires_one_condition(self, engine):
        q = engine.query("feed")
        with pytest.raises(PlanError, match="exactly one"):
            q.ejoin("words", left_on="text", right_on="word", model="hash")
        with pytest.raises(PlanError, match="exactly one"):
            q.ejoin(
                "words", left_on="text", right_on="word", model="hash",
                threshold=0.9, top_k=1,
            )

    @pytest.mark.parametrize("strategy", ["tensor_int8", "tensor-fp16", "tensor-pq"])
    def test_unknown_strategy_rejected_at_build_time(self, engine, strategy):
        """A typo or a removed label fails when the plan is built, naming
        the 7 valid labels -- not at ``execute()``, deep in the join."""
        q = engine.query("feed")
        with pytest.raises(PlanError, match="unknown strategy.*'tensor-int8'") as raised:
            q.ejoin(
                "words", left_on="text", right_on="word", model="hash",
                top_k=1, strategy=strategy,
            )
        labels = (
            "naive-nlj", "nlj", "nlj-scalar", "tensor", "tensor-int8",
            "parallel-tensor", "index",
        )
        assert f"unknown strategy {strategy!r}; have {labels}" in str(raised.value)

    def test_auto_is_rejected_at_build_time(self, engine):
        """The planner is the one chooser: ``"auto"`` is no label, and a
        join that names no strategy is the way to let the planner pick."""
        q = engine.query("feed")
        with pytest.raises(PlanError, match="unknown strategy 'auto'.*omit it"):
            q.ejoin(
                "words", left_on="text", right_on="word", model="hash",
                top_k=1, strategy="auto",
            )
        q.ejoin("words", left_on="text", right_on="word", model="hash", top_k=1)

    def test_builder_immutability(self, engine):
        base = engine.query("feed")
        filtered = base.where(Col("views") > 100)
        assert base.plan is not filtered.plan

    def test_register_index_validates_table(self, engine):
        with pytest.raises(SchemaError):
            engine.register_index("nope", "word", FlatIndex(4))


class TestExecution:
    def test_simple_filter_select(self, engine):
        out = (
            engine.query("feed")
            .where(Col("views") > 5000)
            .select(["text", "views"])
            .execute()
        )
        assert out.schema.names == ("text", "views")
        assert (out.array("views") > 5000).all()

    def test_ejoin_topk(self, engine):
        out = (
            engine.query("feed")
            .ejoin("words", left_on="text", right_on="word", model="hash", top_k=1)
            .execute()
        )
        assert out.num_rows == 80
        assert "similarity" in out.schema

    def test_ejoin_threshold(self, engine):
        out = (
            engine.query("feed")
            .ejoin(
                "words", left_on="text", right_on="word", model="hash",
                threshold=0.999,
            )
            .execute()
        )
        # Exact duplicates match at ~1.0.
        for row in out.to_dicts():
            assert row["text"] == row["word"]

    def test_hybrid_relational_plus_semantic(self, engine):
        out = (
            engine.query("feed")
            .where(Col("day") > date(2023, 6, 1))
            .ejoin("words", left_on="text", right_on="word", model="hash", top_k=1)
            .select(["text", "word", "day", "similarity"])
            .limit(5)
            .execute()
        )
        assert out.num_rows <= 5
        assert all(d > date(2023, 6, 1) for d in out.column("day").to_pylist())

    def test_equi_join(self, engine):
        out = engine.query("feed").join(
            "words", left_on="text", right_on="word"
        ).execute()
        assert out.num_rows > 0

    def test_subquery_as_right_side(self, engine):
        words_sub = engine.query("words").where(Col("id") < 5)
        out = (
            engine.query("feed")
            .ejoin(words_sub, left_on="text", right_on="word", model="hash", top_k=1)
            .execute()
        )
        matched = set(out.array("word").tolist())
        allowed = set(
            engine.catalog.get("words").head(5).array("word").tolist()
        )
        assert matched <= allowed

    def test_unoptimized_execution(self, engine):
        q = engine.query("feed").ejoin(
            "words", left_on="text", right_on="word", model="hash", top_k=1
        ).limit(3)
        # prefetch=False without the optimizer -> naive path; tiny limit
        # keeps it cheap. Results must agree with the optimized run.
        fast = q.execute(optimize=True)
        assert fast.num_rows == 3

    def test_last_report(self, engine):
        q = engine.query("feed").ejoin(
            "words", left_on="text", right_on="word", model="hash", top_k=1
        )
        assert q.last_report is None
        q.execute()
        assert q.last_report is not None
        assert q.last_report.strategies == ["tensor"]


class TestExplain:
    def test_explain_shows_plan_and_trace(self, engine):
        text = (
            engine.query("feed")
            .where(Col("views") > 10)
            .ejoin("words", left_on="text", right_on="word", model="hash", top_k=2)
            .explain()
        )
        assert "EJoin" in text
        assert "prefetch" in text
        assert "rewrites applied" in text

    def test_explain_unoptimized(self, engine):
        text = engine.query("feed").explain(optimize=False)
        assert text.strip() == "Scan(feed)"

    def test_embed_node_via_builder(self, engine):
        out = engine.query("words").embed("word", "hash", output="vec").execute()
        assert "vec" in out.schema
