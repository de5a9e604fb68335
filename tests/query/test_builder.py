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


class TestExecutorTracksConfig:
    """``Engine.executor`` is rebuilt when a setting its constructor reads
    changes — the reliability ones included, not only threads and budget."""

    @pytest.mark.parametrize(
        "field, value, read",
        [
            ("retry_max_attempts", 7, lambda ex: ex.retry_policy.max_attempts),
            ("retry_base_ms", 4.0, lambda ex: ex.retry_policy.base_s * 1000.0),
            ("retry_cap_ms", 80.0, lambda ex: ex.retry_policy.cap_s * 1000.0),
            ("watchdog_stall_s", 0.25, lambda ex: ex.watchdog.stall_s),
        ],
    )
    def test_configure_after_first_query_reaches_the_executor(
        self, engine, field, value, read
    ):
        from repro.config import configure, get_config

        first = engine.executor
        assert engine.executor is first  # unchanged config: same executor
        saved = getattr(get_config(), field)
        try:
            configure(**{field: value})
            assert read(engine.executor) == value
            assert engine.executor is not first
        finally:
            configure(**{field: saved})
