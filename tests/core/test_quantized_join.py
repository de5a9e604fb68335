"""Unit tests for the quantized tensor join (int8/PQ scan + fp32 re-rank)."""

import numpy as np
import pytest

from repro.config import configure
from repro.core import (
    QuantizedRelation,
    ThresholdCondition,
    TopKCondition,
    ejoin,
    quantized_eselect,
    quantized_tensor_join,
    tensor_join,
)
from repro.core.scan import TOPK_PRESCREEN_PAD
from repro.engine import ExecutionEngine, serial_engine
from repro.errors import DimensionalityError, JoinError
from repro.vector import ProductQuantizer
from repro.workloads import embedding_like_vectors, unit_vectors

pytestmark = pytest.mark.quant

METHODS = ("int8", "pq")


@pytest.fixture()
def relations() -> tuple[np.ndarray, np.ndarray]:
    left = unit_vectors(60, 16, seed=31)
    right = unit_vectors(500, 16, seed=32)
    return left, right


class TestExactness:
    """Default settings == the exact fp32 join, scores included."""

    @pytest.mark.parametrize("method", METHODS)
    def test_topk_matches_fp32(self, relations, method):
        left, right = relations
        condition = TopKCondition(5)
        ref = tensor_join(left, right, condition).sorted()
        got = quantized_tensor_join(left, right, condition, method=method).sorted()
        assert got.pairs() == ref.pairs()
        np.testing.assert_allclose(got.scores, ref.scores, atol=1e-5)

    @pytest.mark.parametrize("method", METHODS)
    def test_threshold_matches_fp32_exactly(self, relations, method):
        # The quantizer error bound makes the prescreen sound (no false
        # negatives) and the re-rank filters exactly.
        left, right = relations
        condition = ThresholdCondition(0.4)
        ref = tensor_join(left, right, condition)
        got = quantized_tensor_join(left, right, condition, method=method)
        assert got.pairs() == ref.pairs()

    @pytest.mark.parametrize("method", METHODS)
    def test_topk_ties_break_by_smallest_right_id(self, method):
        left = unit_vectors(4, 8, seed=41)
        right = np.vstack([left[0], left[0], left[0], left[1]])
        got = quantized_tensor_join(
            left[:1], right, TopKCondition(2), method=method
        ).sorted()
        assert got.right_ids.tolist() == [0, 1]


class TestRecall:
    @pytest.mark.parametrize("method", METHODS)
    def test_embedding_like_recall_is_one(self, method):
        """Clustered, low-rank rows — where a candidate multiple used to
        miss neighbours — come out as the fp32 join's pairs."""
        data, _ = embedding_like_vectors(
            4096 + 128, 64, rank=16, n_clusters=128, noise=1.0, seed=43
        )
        left, right = data[:128], data[128:]
        condition = TopKCondition(10)
        ref = tensor_join(left, right, condition)
        got = quantized_tensor_join(left, right, condition, method=method)
        assert got.pairs() == ref.pairs()


class TestBatchingAndEngine:
    @pytest.mark.parametrize("method", METHODS)
    def test_budget_invariance(self, relations, method):
        left, right = relations
        store = QuantizedRelation.build(right, method)
        condition = TopKCondition(3)
        small = quantized_tensor_join(
            left, store, condition, buffer_budget_bytes=8 << 10,
        )
        large = quantized_tensor_join(
            left, store, condition, buffer_budget_bytes=8 << 20,
        )
        assert small.pairs() == large.pairs()

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_budget_too_small_for_the_pad_keeps_fewer(self, relations, method, k):
        """2 KiB over two workers cannot hold a row's ``k +``
        ``TOPK_PRESCREEN_PAD`` candidates: the row keeps fewer, so more
        rows take the fixed-floor pass, and the answer is still fp32's."""
        left, right = relations
        condition = TopKCondition(k)
        engine = ExecutionEngine(n_threads=2, morsel_rows=3, buffer_budget_bytes=2048)
        store = QuantizedRelation.build(right, method)
        got = quantized_tensor_join(left, store, condition, engine=engine)
        assert got.pairs() == tensor_join(left, right, condition).pairs()
        assert got.stats.extra["peak_intermediate_bytes"] <= 2048
        roomy = quantized_tensor_join(left, store, condition)
        assert got.stats.extra["rescanned_rows"] >= roomy.stats.extra["rescanned_rows"]

    @pytest.mark.parametrize("method", METHODS)
    def test_engine_matches_serial(self, relations, method):
        left, right = relations
        store = QuantizedRelation.build(right, method)
        condition = TopKCondition(3)
        serial = quantized_tensor_join(
            left, store, condition, engine=serial_engine()
        )
        engine = ExecutionEngine(n_threads=4, morsel_rows=16)
        parallel = quantized_tensor_join(
            left, store, condition, engine=engine, buffer_budget_bytes=64 << 10,
        )
        assert parallel.pairs() == serial.pairs()

    def test_explicit_batch_edges(self, relations):
        left, right = relations
        ref = quantized_tensor_join(left, right, TopKCondition(3), method="int8")
        got = quantized_tensor_join(
            left, right, TopKCondition(3), method="int8", batch_left=7, batch_right=13
        )
        assert got.pairs() == ref.pairs()


class TestStoreAndStats:
    def test_store_reuse_and_operand_bytes(self, relations):
        left, right = relations
        store = QuantizedRelation.build(right, "int8")
        first = quantized_tensor_join(left, store, TopKCondition(2))
        second = quantized_tensor_join(left, store, TopKCondition(2))
        assert first.pairs() == second.pairs()
        assert first.stats.strategy == "tensor-int8"
        assert store.code_bytes == right.size  # one byte per dimension
        assert first.stats.extra["bytes_per_code"] == right.shape[1]
        assert first.stats.extra["operand_bytes"] < (
            left.nbytes + right.nbytes
        )

    def test_pq_store_records_code_bytes(self, relations):
        _, right = relations
        store = QuantizedRelation.build(right, "pq", m=4, ks=16)
        assert store.quantizer.bytes_per_code == 4
        assert store.codes.nbytes == len(right) * 4

    def test_rerank_candidates_tracked(self, relations):
        """Each row re-ranks ``k + TOPK_PRESCREEN_PAD`` codes, and a row
        the bound cannot prove re-ranks what its second pass kept."""
        left, right = relations
        got = quantized_tensor_join(left, right, TopKCondition(4), method="int8")
        first = len(left) * (4 + TOPK_PRESCREEN_PAD)
        assert got.stats.extra["rerank_candidates"] >= first
        assert (got.stats.extra["rerank_candidates"] > first) == (
            got.stats.extra["rescanned_rows"] > 0
        )
        assert got.stats.similarity_evaluations == got.stats.extra[
            "rerank_candidates"
        ] + len(right) * (len(left) + got.stats.extra["rescanned_rows"])
        threshold = quantized_tensor_join(left, right, ThresholdCondition(0.4), method="int8")
        assert threshold.stats.extra["rescanned_rows"] == 0

    def test_pq_scan_builds_the_one_hot_once(self, relations, monkeypatch):
        """PQ's one-hot CSR is built with the store; the fixed-floor pass
        of the rows its bound cannot prove scans it again, never rebuilds."""
        left, right = relations
        built = []
        onehot = ProductQuantizer.onehot
        monkeypatch.setattr(
            ProductQuantizer, "onehot",
            lambda self, codes: built.append(len(codes)) or onehot(self, codes),
        )
        store = QuantizedRelation.build(right, "pq", m=4, ks=16)
        assert built == [len(right)]
        condition = TopKCondition(5)
        got = quantized_tensor_join(left, store, condition, buffer_budget_bytes=8 << 10)
        assert got.stats.extra["rescanned_rows"] > 0
        assert got.pairs() == tensor_join(left, right, condition).pairs()
        quantized_eselect(store, left[0], condition)
        assert built == [len(right)]  # a join and a selection, one build

    def test_method_conflict_with_store(self, relations):
        _, right = relations
        store = QuantizedRelation.build(right, "int8")
        with pytest.raises(JoinError, match="conflicts"):
            quantized_tensor_join(
                right[:5], store, TopKCondition(1), method="pq"
            )

    def test_unknown_method(self, relations):
        left, right = relations
        with pytest.raises(JoinError, match="unknown quantization method"):
            quantized_tensor_join(
                left, right, TopKCondition(1), method="fp8"
            )

    def test_dim_mismatch(self, relations):
        left, right = relations
        store = QuantizedRelation.build(right, "int8")
        with pytest.raises(DimensionalityError):
            quantized_tensor_join(
                unit_vectors(5, 8, seed=1), store, TopKCondition(1)
            )

    def test_empty_inputs(self):
        empty = np.empty((0, 8), dtype=np.float32)
        got = quantized_tensor_join(
            empty, unit_vectors(10, 8, seed=2), TopKCondition(1),
            method="int8",
        )
        assert len(got) == 0
        got = quantized_tensor_join(
            unit_vectors(10, 8, seed=2), empty, TopKCondition(1),
            method="int8",
        )
        assert len(got) == 0

    def test_min_similarity_applied_on_exact_scores(self, relations):
        left, right = relations
        got = quantized_tensor_join(
            left, right, TopKCondition(5, min_similarity=0.3), method="int8"
        )
        assert (got.scores >= 0.3).all()


class TestDispatch:
    def test_ejoin_strategy_names(self, relations):
        left, right = relations
        ref = tensor_join(left, right, TopKCondition(3)).pairs()
        for strategy in ("tensor-int8", "tensor-pq"):
            got = ejoin(left, right, TopKCondition(3), strategy=strategy)
            assert got.stats.strategy == strategy
            assert got.pairs() == ref

    def test_auto_respects_configured_precision(self, relations):
        left, right = relations
        configure(default_precision="int8")
        try:
            got = ejoin(left, right, TopKCondition(3), strategy="auto")
            assert got.stats.strategy == "tensor-int8"
        finally:
            configure(default_precision="fp32")
        got = ejoin(left, right, TopKCondition(3), strategy="auto")
        assert got.stats.strategy == "tensor"

    def test_quantized_eselect(self, relations):
        left, right = relations
        result = quantized_eselect(right, left[0], TopKCondition(5), method="int8")
        from repro.core import eselect

        ref = eselect(right, left[0], TopKCondition(5))
        assert result.stats.strategy == "eselect/int8"
        assert result.ids.tolist() == ref.ids.tolist()
