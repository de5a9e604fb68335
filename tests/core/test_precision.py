"""Unit tests for the reduced-precision tensor join."""

import numpy as np

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    precision_error_bound,
    tensor_join,
    tensor_join_fp16,
)
from repro.core.precision import quantize_fp16
from repro.vector import normalize_rows


class TestQuantize:
    def test_dtype_and_footprint(self, small_vectors):
        left, _ = small_vectors
        half = quantize_fp16(left)
        assert half.dtype == np.float16
        assert half.nbytes == left.astype(np.float32).nbytes // 2

    def test_quantization_error_small(self, small_vectors):
        left, _ = small_vectors
        full = normalize_rows(left)
        half = quantize_fp16(left).astype(np.float32)
        assert np.abs(full - half).max() < 2.0**-10


class TestErrorBound:
    def test_monotone_in_dim(self):
        assert precision_error_bound(256) > precision_error_bound(16)

    def test_reasonable_magnitude(self):
        assert precision_error_bound(100) < 0.02


class TestFp16Join:
    def test_scores_within_bound(self, small_vectors):
        left, right = small_vectors
        cond = TopKCondition(3)
        full = tensor_join(left, right, cond).sorted()
        half = tensor_join_fp16(left, right, cond).sorted()
        bound = precision_error_bound(left.shape[1])
        # Compare matched scores pairwise on the common pairs.
        common = full.pairs() & half.pairs()
        full_scores = {
            (li, r): s
            for li, r, s in zip(
                full.left_ids.tolist(), full.right_ids.tolist(), full.scores
            )
        }
        half_scores = {
            (li, r): s
            for li, r, s in zip(
                half.left_ids.tolist(), half.right_ids.tolist(), half.scores
            )
        }
        assert len(common) >= 0.9 * len(full.pairs())
        for pair in common:
            assert abs(full_scores[pair] - half_scores[pair]) <= bound

    def test_threshold_differences_only_near_boundary(self, small_vectors):
        left, right = small_vectors
        t = 0.4
        full = tensor_join(left, right, ThresholdCondition(t))
        half = tensor_join_fp16(left, right, ThresholdCondition(t))
        bound = precision_error_bound(left.shape[1])
        scores = normalize_rows(left) @ normalize_rows(right).T
        for li, r in full.pairs() ^ half.pairs():
            assert abs(float(scores[li, r]) - t) <= 2 * bound

    def test_operand_bytes_recorded(self, small_vectors):
        left, right = small_vectors
        result = tensor_join_fp16(left, right, TopKCondition(1))
        expected = (left.size + right.size) * 2  # fp16 bytes
        assert result.stats.extra["operand_bytes"] == expected

    def test_empty_inputs(self):
        result = tensor_join_fp16(
            np.empty((0, 4), dtype=np.float32),
            np.empty((0, 4), dtype=np.float32),
            TopKCondition(1),
        )
        assert len(result) == 0

    def test_batching_supported(self, small_vectors):
        left, right = small_vectors
        full = tensor_join_fp16(left, right, ThresholdCondition(0.4))
        batched = tensor_join_fp16(
            left, right, ThresholdCondition(0.4), batch_left=7, batch_right=9
        )
        assert full.pairs() == batched.pairs()


    def test_no_fp32_copy_of_the_right_side_is_made(self):
        """Storage stays FP16: the right side is normalised into fp16 a
        slab at a time and upcast one block at a time, so the call's peak
        is the fp16 copy (0.5x) plus one block — not the fp16 copy beside
        a whole upcast and a whole normalised copy (over 2x)."""
        import tracemalloc

        from repro.workloads import unit_vectors

        left = unit_vectors(64, 128, seed=3)
        right = unit_vectors(20_000, 128, seed=4)
        tracemalloc.start()
        try:
            result = tensor_join_fp16(
                left, right, TopKCondition(5), batch_right=2048
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats.extra["batch_shape"] == (64, 2048)
        assert result.stats.extra["operand_bytes"] == (left.nbytes + right.nbytes) // 2
        assert peak < 1.0 * right.nbytes, peak / right.nbytes
