"""Quantized access paths in the planner: a strategy hint picks them.

Only the label (``tensor-int8``) puts a scan on codes; an
unhinted join scans fp32 and a selection always reads the unit rows.
"""

import numpy as np
import pytest

from repro.algebra import (
    EJoinNode,
    ESelectNode,
    ExecutionContext,
    ExecutionReport,
    ScanNode,
    execute,
)
from repro.core import ThresholdCondition, TopKCondition
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.relational import Catalog, DataType, Field, Schema, Table

pytestmark = pytest.mark.quant

DIM = 16


@pytest.fixture()
def ctx() -> ExecutionContext:
    schema = Schema.of(
        Field("id", DataType.INT64), Field("emb", DataType.TENSOR, dim=DIM)
    )

    def table(n: int, seed: int) -> Table:
        rng = np.random.default_rng(seed)
        return Table.from_arrays(
            schema,
            {
                "id": np.arange(n),
                "emb": rng.standard_normal((n, DIM)).astype(np.float32),
            },
        )

    catalog = Catalog()
    catalog.register("probes", table(40, 1))
    catalog.register("base", table(300, 2))
    catalog.register("base_wide", table(1000, 5))
    models = ModelRegistry()
    models.register("hash", HashingEmbedder(dim=DIM, seed=3))
    return ExecutionContext(catalog, models=models)


@pytest.fixture()
def join_plan() -> EJoinNode:
    return EJoinNode(
        ScanNode("probes"),
        ScanNode("base"),
        "emb",
        "emb",
        "hash",
        TopKCondition(3),
        prefetch=True,
    )


class TestPlanner:
    def test_fp32_by_default(self, ctx, join_plan):
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor"]

    @pytest.mark.parametrize("method", ["int8"])
    @pytest.mark.parametrize(
        "condition", [TopKCondition(3), ThresholdCondition(0.5)], ids=["topk", "threshold"]
    )
    def test_quantized_results_close_to_fp32(self, ctx, join_plan, method, condition):
        """A hinted code scan answers the fp32 scan's pairs: a top-k row
        is proved or rescanned, a threshold re-ranked."""
        from dataclasses import replace

        plan = replace(join_plan, right=ScanNode("base_wide"), condition=condition)
        ref = execute(plan, ctx, report=ExecutionReport())
        report = ExecutionReport()
        got = execute(replace(plan, strategy_hint=f"tensor-{method}"), ctx, report=report)
        assert report.strategies == [f"tensor-{method}"]
        assert ref.num_rows > 0
        for column in ("l_id", "r_id"):
            assert got.array(column).tolist() == ref.array(column).tolist()

    @pytest.mark.parametrize("method", ["int8"])
    def test_selection_reads_unit_rows_beside_a_built_store(self, ctx, join_plan, method):
        """A hinted join that encoded the source does not pull a later
        selection onto its codes: the selection runs ``eselect`` on the
        unit rows, as a context that never built the store does."""
        from dataclasses import replace

        plan = ESelectNode(
            ScanNode("base"), "emb", np.ones(DIM, dtype=np.float32), "hash",
            ThresholdCondition(0.3),
        )
        cold = execute(plan, ExecutionContext(ctx.catalog, models=ctx.models))
        execute(replace(join_plan, strategy_hint=f"tensor-{method}"), ctx)
        assert ("base", "emb", "hash") in ctx.sources.entries(method)
        report = ExecutionReport()
        out = execute(plan, ctx, report=report)
        assert report.strategies == ["eselect/scan"]
        for column in ("id", "similarity"):
            assert np.array_equal(out.array(column), cold.array(column))

    def test_selection_span_names_its_scan_only(self, ctx):
        """``planner.eselect`` carries what ran, over how many rows, on
        which prescreen and in which probe order: a selection has no
        precision to pick and no fallback edge."""
        from repro.obs.trace import QueryScope, Trace

        plan = ESelectNode(
            ScanNode("base"), "emb", np.ones(DIM, dtype=np.float32), "hash",
            TopKCondition(5),
        )
        trace = Trace("q", "t")
        with QueryScope(trace):
            execute(plan, ctx)
        (span,) = trace.find("planner.eselect")
        assert span.attrs == {
            "strategy": "eselect/scan", "rows": 300, "prescreen": "dense", "probe": "dense",
        }


class TestStoreAmortization:
    @pytest.mark.parametrize("method", ["int8"])
    def test_hinted_quantized_scan_builds_store_once(
        self, ctx, join_plan, method, monkeypatch
    ):
        """A ``tensor-int8`` hint goes through the context's
        store cache: two executions encode once and share the entry, a
        re-registered table encodes again."""
        from dataclasses import replace

        from repro.core.quantized_join import QuantizedRelation

        builds = []
        original = QuantizedRelation.build.__func__

        def counting_build(cls, vectors, method_, **kwargs):
            builds.append(method_)
            return original(cls, vectors, method_, **kwargs)

        monkeypatch.setattr(
            QuantizedRelation, "build", classmethod(counting_build)
        )
        hinted = replace(join_plan, strategy_hint=f"tensor-{method}")
        first, second = ExecutionReport(), ExecutionReport()
        out_first = execute(hinted, ctx, report=first)
        out_second = execute(hinted, ctx, report=second)
        assert first.strategies == second.strategies == [f"tensor-{method}"]
        assert builds == [method]
        assert ("base", "emb", "hash") in ctx.sources.entries(method)
        first_store = ctx.sources.entries(method)[("base", "emb", "hash")][1]
        execute(hinted, ctx, report=ExecutionReport())
        assert ctx.sources.entries(method)[("base", "emb", "hash")][1] is first_store
        assert out_first.array("r_id").tolist() == out_second.array("r_id").tolist()

        fresh = np.random.default_rng(9).standard_normal((300, DIM))
        ctx.catalog.register(
            "base",
            Table.from_arrays(
                ctx.catalog.get("base").schema,
                {"id": np.arange(300), "emb": fresh.astype(np.float32)},
            ),
            replace=True,
        )
        execute(hinted, ctx, report=ExecutionReport())
        assert builds == [method, method]

    @pytest.mark.parametrize("method", ["int8"])
    def test_hinted_quantized_scan_of_an_empty_source_is_empty(self, ctx, join_plan, method):
        """No rows means nothing to encode: the hinted code scan answers
        empty under its own label (it used to fail fitting the quantizer)."""
        from dataclasses import replace

        empty = ctx.catalog.get("base").slice(0, 0)
        ctx.catalog.register("base", empty, replace=True)
        report = ExecutionReport()
        out = execute(replace(join_plan, strategy_hint=f"tensor-{method}"), ctx, report=report)
        assert out.num_rows == 0
        assert report.strategies == [f"tensor-{method}"]
        assert report.fallbacks == []

    def test_hinted_quantized_scan_falls_back_past_open_breaker(
        self, ctx, join_plan
    ):
        from dataclasses import replace

        for _ in range(3):
            ctx.breakers.record_failure(("base", "emb", "hash", "int8"))
        report = ExecutionReport()
        execute(replace(join_plan, strategy_hint="tensor-int8"), ctx, report=report)
        assert report.strategies == ["tensor"]

    def test_scan_inputs_normalized_once_and_bit_identical(self, ctx, join_plan):
        """Plain table scans share the context's unit-row matrix across
        executions; results equal the inline-normalizing operator's."""
        from repro.core import tensor_join

        out = execute(join_plan, ctx, report=ExecutionReport())

        def cached():
            return {
                (*key, rep): entry[1]
                for rep in ("unit", "caps")
                for key, entry in ctx.sources.entries(rep).items()
            }

        first = cached()
        # The right side's cap partition sits beside its unit rows (declined
        # here: too few rows to pay for one).
        assert set(first) == {
            ("probes", "emb", "hash", "unit"), ("base", "emb", "hash", "unit"),
            ("base", "emb", "hash", "caps"),
        }
        assert first[("base", "emb", "hash", "caps")] is None
        execute(join_plan, ctx, report=ExecutionReport())
        for key, matrix in first.items():
            assert cached()[key] is matrix  # normalized once
        direct = tensor_join(
            ctx.catalog.get("probes").array("emb"),
            ctx.catalog.get("base").array("emb"),
            join_plan.condition,
        )
        assert np.array_equal(out.array("similarity"), direct.scores)
