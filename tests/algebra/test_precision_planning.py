"""Optimizer/planner selection of quantized access paths (REPRO_PRECISION)."""

import numpy as np
import pytest

from repro.algebra import (
    EJoinNode,
    ESelectNode,
    ExecutionContext,
    ExecutionReport,
    FilterNode,
    ScanNode,
    execute,
)
from repro.config import configure
from repro.core import TopKCondition, choose_scan_precision
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
    catalog.register("probes_many", table(800, 4))
    catalog.register("base", table(300, 2))
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


@pytest.fixture(autouse=True)
def _restore_precision():
    yield
    configure(default_precision="fp32", default_min_recall=0.95)


class TestChooser:
    def test_quantized_wins_when_allowed(self):
        decision = choose_scan_precision(
            1000, 50_000, 10, 128, precision="int8"
        )
        assert decision.precision == "int8"
        assert decision.quantized_cost < decision.fp32_cost

    def test_accuracy_floor_gates_pq(self):
        decision = choose_scan_precision(
            1000, 50_000, 10, 128, precision="pq", min_recall=0.999
        )
        assert decision.precision == "fp32"

    def test_fp32_default(self):
        decision = choose_scan_precision(1000, 50_000, 10, 128)
        assert decision.precision == "fp32"


class TestPlanner:
    def test_ejoin_picks_int8_scan(self, ctx, join_plan):
        configure(default_precision="int8", default_min_recall=0.9)
        report = ExecutionReport()
        out = execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor-int8"]
        assert out.num_rows > 0

    def test_ejoin_picks_pq_once_probes_amortize_training(self, ctx):
        # PQ codebook training is expensive: a 40-probe join stays fp32,
        # a wide probe batch amortizes the build and flips to pq.
        configure(default_precision="pq", default_min_recall=0.9)
        small = EJoinNode(
            ScanNode("probes"), ScanNode("base"), "emb", "emb", "hash",
            TopKCondition(3), prefetch=True,
        )
        report = ExecutionReport()
        execute(small, ctx, report=report)
        assert report.strategies == ["tensor"]
        big = EJoinNode(
            ScanNode("probes_many"), ScanNode("base"), "emb", "emb", "hash",
            TopKCondition(3), prefetch=True,
        )
        report = ExecutionReport()
        out = execute(big, ctx, report=report)
        assert report.strategies == ["tensor-pq"]
        assert out.num_rows > 0
        # The store now exists, so even the small join amortizes it.
        report = ExecutionReport()
        execute(small, ctx, report=report)
        assert report.strategies == ["tensor-pq"]

    def test_fp32_when_floor_unreachable(self, ctx, join_plan):
        configure(default_precision="pq", default_min_recall=0.999)
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor"]

    def test_fp32_by_default(self, ctx, join_plan):
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor"]

    def test_eselect_picks_quantized_scan_once_store_exists(
        self, ctx, join_plan
    ):
        configure(default_precision="int8", default_min_recall=0.9)
        # A join over the same scan source pays the build and caches the
        # encoded store; the subsequent selection amortizes it.
        execute(join_plan, ctx, report=ExecutionReport())
        assert ("base", "emb", "hash", "int8") in ctx.quant_stores
        plan = ESelectNode(
            ScanNode("base"),
            "emb",
            np.ones(DIM, dtype=np.float32),
            "hash",
            TopKCondition(5),
        )
        report = ExecutionReport()
        out = execute(plan, ctx, report=report)
        assert report.strategies == ["eselect/int8"]
        assert out.num_rows == 5

    def test_quantized_results_close_to_fp32(self, ctx, join_plan):
        report_fp32 = ExecutionReport()
        ref = execute(join_plan, ctx, report=report_fp32)
        configure(default_precision="int8")
        report_q = ExecutionReport()
        got = execute(join_plan, ctx, report=report_q)
        ref_pairs = set(zip(ref.array("l_id").tolist(), ref.array("r_id").tolist()))
        got_pairs = set(zip(got.array("l_id").tolist(), got.array("r_id").tolist()))
        overlap = len(ref_pairs & got_pairs) / len(ref_pairs)
        assert overlap >= 0.9


class TestStoreAmortization:
    def test_quant_store_cached_across_executions(self, ctx, join_plan):
        configure(default_precision="int8", default_min_recall=0.9)
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor-int8"]
        key = ("base", "emb", "hash", "int8")
        assert key in ctx.quant_stores
        first = ctx.quant_stores[key]
        execute(join_plan, ctx, report=ExecutionReport())
        assert ctx.quant_stores[key] is first  # encoded once, reused

    @pytest.mark.parametrize("method", ["int8", "pq"])
    def test_hinted_quantized_scan_builds_store_once(
        self, ctx, join_plan, method, monkeypatch
    ):
        """A forced ``tensor-int8``/``tensor-pq`` hint goes through the
        context's store cache like the REPRO_PRECISION branch does: two
        executions encode once, a re-registered table encodes again."""
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
        assert ("base", "emb", "hash", method) in ctx.quant_stores
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

    def test_hinted_quantized_scan_falls_back_past_open_breaker(
        self, ctx, join_plan
    ):
        from dataclasses import replace

        from repro.reliability.breaker import breakers, reset_breakers

        reset_breakers()
        try:
            for _ in range(3):
                breakers().record_failure(("base", "emb", "hash", "int8"))
            report = ExecutionReport()
            execute(
                replace(join_plan, strategy_hint="tensor-int8"), ctx, report=report
            )
            assert report.strategies == ["tensor"]
        finally:
            reset_breakers()

    def test_scan_inputs_normalized_once_and_bit_identical(self, ctx, join_plan):
        """Plain table scans share the context's unit-row matrix across
        executions; results equal the inline-normalizing operator's."""
        from repro.core import tensor_join

        out = execute(join_plan, ctx, report=ExecutionReport())
        cached = {key: entry[1] for key, entry in ctx.norm_cache.items()}
        assert set(cached) == {("probes", "emb", "hash"), ("base", "emb", "hash")}
        execute(join_plan, ctx, report=ExecutionReport())
        for key, matrix in cached.items():
            assert ctx.norm_cache[key][1] is matrix  # normalized once
        direct = tensor_join(
            ctx.catalog.get("probes").array("emb"),
            ctx.catalog.get("base").array("emb"),
            join_plan.condition,
        )
        assert np.array_equal(out.array("similarity"), direct.scores)

    def test_cold_one_shot_eselect_stays_fp32_for_pq(self, ctx):
        # A filtered (non-cacheable) source cannot amortize PQ training,
        # so the chooser charges the build and keeps the exact scan.
        from repro.relational import Col

        configure(default_precision="pq", default_min_recall=0.5)
        plan = ESelectNode(
            FilterNode(ScanNode("base"), Col("id") >= 0),
            "emb",
            np.ones(DIM, dtype=np.float32),
            "hash",
            TopKCondition(5),
        )
        report = ExecutionReport()
        execute(plan, ctx, report=report)
        assert report.strategies == ["eselect/scan"]

    def test_build_cost_gates_cold_chooser(self):
        cold = choose_scan_precision(
            1, 20_000, 10, 128, precision="pq", store_built=False
        )
        warm = choose_scan_precision(
            1, 20_000, 10, 128, precision="pq", store_built=True
        )
        assert cold.precision == "fp32"
        assert warm.quantized_cost < cold.quantized_cost


class TestFp16Knob:
    def test_planner_picks_fp16_scan(self, ctx, join_plan):
        configure(default_precision="fp16")
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor-fp16"]

    def test_ejoin_auto_picks_fp16(self):
        from repro.core import ejoin
        from repro.workloads import unit_vectors

        left = unit_vectors(10, 8, seed=1)
        right = unit_vectors(20, 8, seed=2)
        configure(default_precision="fp16")
        got = ejoin(left, right, TopKCondition(2), strategy="auto")
        assert got.stats.strategy == "tensor-fp16"
