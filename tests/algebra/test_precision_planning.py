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
from repro.core import CostParams, ThresholdCondition, TopKCondition, choose_scan_precision
from repro.core.cost_model import quantized_build_cost, quantized_scan_join_cost
from repro.core.scan import TOPK_PRESCREEN_PAD
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


@pytest.fixture(autouse=True)
def _restore_precision():
    yield
    configure(default_precision="fp32")


class TestChooser:
    def test_quantized_wins_when_allowed(self):
        decision = choose_scan_precision(
            1000, 50_000, 10, 128, precision="int8"
        )
        assert decision.precision == "int8"
        assert decision.quantized_cost < decision.fp32_cost

    def test_fp32_default(self):
        decision = choose_scan_precision(1000, 50_000, 10, 128)
        assert decision.precision == "fp32"

    def test_quantized_cost_reranks_k_plus_the_pad(self):
        """No candidate multiple: each probe re-ranks ``k +``
        ``TOPK_PRESCREEN_PAD`` codes, at most the whole base."""
        params = CostParams()
        for n_base in (50_000, 20):
            decision = choose_scan_precision(
                1000, n_base, 10, 128, precision="int8", params=params
            )
            want = quantized_scan_join_cost(
                1000, n_base, 128, params, bytes_per_code=128,
                rerank_k=min(10 + TOPK_PRESCREEN_PAD, n_base),
            ) + quantized_build_cost(n_base, 128, params, precision="int8")
            assert decision.quantized_cost == pytest.approx(want)

    def test_pq_topk_is_not_adopted_over_fp32(self):
        """PQ's bound proves no top-k row, so every row would take the
        fixed-floor pass too: however cheap its code scan prices, a PQ
        top-k stays on fp32.  A PQ threshold scan is still priced."""
        for store_built in (False, True):
            topk = choose_scan_precision(
                1000, 50_000, 10, 128, precision="pq", store_built=store_built
            )
            assert topk.precision == "fp32"
        threshold = choose_scan_precision(
            1000, 50_000, 10, 128, topk=False, precision="pq", store_built=True
        )
        assert threshold.precision == "pq"
        assert threshold.quantized_cost < threshold.fp32_cost


class TestPlanner:
    def test_ejoin_picks_int8_scan(self, ctx, join_plan):
        configure(default_precision="int8")
        report = ExecutionReport()
        out = execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor-int8"]
        assert out.num_rows > 0

    def test_ejoin_picks_pq_once_probes_amortize_training(self, ctx):
        # PQ codebook training is expensive: a 40-probe join stays fp32,
        # a wide probe batch amortizes the build and flips to pq.  (A
        # threshold join: a PQ top-k stays on fp32 whatever it costs.)
        configure(default_precision="pq")
        small = EJoinNode(
            ScanNode("probes"), ScanNode("base_wide"), "emb", "emb", "hash",
            ThresholdCondition(0.5), prefetch=True,
        )
        report = ExecutionReport()
        execute(small, ctx, report=report)
        assert report.strategies == ["tensor"]
        big = EJoinNode(
            ScanNode("probes_many"), ScanNode("base_wide"), "emb", "emb", "hash",
            ThresholdCondition(0.5), prefetch=True,
        )
        report = ExecutionReport()
        out = execute(big, ctx, report=report)
        assert report.strategies == ["tensor-pq"]
        assert out.num_rows > 0
        # The store now exists, so even the small join amortizes it.
        report = ExecutionReport()
        execute(small, ctx, report=report)
        assert report.strategies == ["tensor-pq"]

    def test_fp32_by_default(self, ctx, join_plan):
        report = ExecutionReport()
        execute(join_plan, ctx, report=report)
        assert report.strategies == ["tensor"]

    def test_eselect_picks_quantized_scan_once_store_exists(
        self, ctx, join_plan
    ):
        configure(default_precision="int8")
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
        assert report_q.strategies == ["tensor-int8"]
        for column in ("l_id", "r_id"):
            assert got.array(column).tolist() == ref.array(column).tolist()

    def test_pq_topk_plan_stays_fp32(self, ctx):
        """Under REPRO_PRECISION=pq the planner keeps a top-k join on the
        fp32 scan, even over a store a threshold join already built; a
        forced PQ top-k is proved (or rescanned) into the fp32 answer."""
        from dataclasses import replace

        topk = EJoinNode(
            ScanNode("probes_many"), ScanNode("base_wide"), "emb", "emb", "hash",
            TopKCondition(3), prefetch=True,
        )
        ref = execute(topk, ctx, report=ExecutionReport())
        configure(default_precision="pq")
        report = ExecutionReport()
        execute(replace(topk, condition=ThresholdCondition(0.5)), ctx, report=report)
        assert report.strategies == ["tensor-pq"]
        report = ExecutionReport()
        execute(topk, ctx, report=report)
        assert report.strategies == ["tensor"]
        report = ExecutionReport()
        got = execute(replace(topk, strategy_hint="tensor-pq"), ctx, report=report)
        assert report.strategies == ["tensor-pq"]
        for column in ("l_id", "r_id"):
            assert got.array(column).tolist() == ref.array(column).tolist()


class TestStoreAmortization:
    def test_quant_store_cached_across_executions(self, ctx, join_plan):
        configure(default_precision="int8")
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
        # The right side's cap partition sits beside its unit rows (declined
        # here: too few rows to pay for one).
        assert set(cached) == {
            ("probes", "emb", "hash"), ("base", "emb", "hash"), ("base", "emb", "hash", "caps"),
        }
        assert cached[("base", "emb", "hash", "caps")] is None
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

        configure(default_precision="pq")
        plan = ESelectNode(
            FilterNode(ScanNode("base"), Col("id") >= 0),
            "emb",
            np.ones(DIM, dtype=np.float32),
            "hash",
            ThresholdCondition(0.5),
        )
        report = ExecutionReport()
        execute(plan, ctx, report=report)
        assert report.strategies == ["eselect/scan"]

    def test_build_cost_gates_cold_chooser(self):
        cold = choose_scan_precision(
            1, 20_000, 10, 128, topk=False, precision="pq", store_built=False
        )
        warm = choose_scan_precision(
            1, 20_000, 10, 128, topk=False, precision="pq", store_built=True
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
