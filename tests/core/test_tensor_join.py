"""Unit tests for the tensor (GEMM) join formulation."""

import numpy as np
import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    prefetch_nlj,
    resolve_batch_shape,
    tensor_join,
    tensor_join_non_batched,
)
from repro.errors import BufferBudgetError, DimensionalityError
from repro.vector import normalize_rows

THRESHOLD = ThresholdCondition(0.4)


class TestEquivalence:
    def test_threshold_matches_nlj(self, small_vectors):
        left, right = small_vectors
        assert (
            tensor_join(left, right, THRESHOLD).pairs()
            == prefetch_nlj(left, right, THRESHOLD).pairs()
        )

    def test_topk_matches_nlj(self, small_vectors):
        left, right = small_vectors
        for k in (1, 3, 7):
            assert (
                tensor_join(left, right, TopKCondition(k)).pairs()
                == prefetch_nlj(left, right, TopKCondition(k)).pairs()
            )

    def test_topk_with_min_similarity(self, small_vectors):
        left, right = small_vectors
        cond = TopKCondition(5, min_similarity=0.3)
        assert (
            tensor_join(left, right, cond).pairs()
            == prefetch_nlj(left, right, cond).pairs()
        )

    def test_scores_match_nlj(self, small_vectors):
        left, right = small_vectors
        a = tensor_join(left, right, THRESHOLD).sorted()
        b = prefetch_nlj(left, right, THRESHOLD).sorted()
        assert np.allclose(a.scores, b.scores, atol=1e-5)


class TestBatching:
    @pytest.mark.parametrize("bl,br", [(1, 1), (7, 13), (30, 40), (64, 5)])
    def test_batch_shape_invariance_threshold(self, small_vectors, bl, br):
        left, right = small_vectors
        full = tensor_join(left, right, THRESHOLD)
        batched = tensor_join(left, right, THRESHOLD, batch_left=bl, batch_right=br)
        assert full.pairs() == batched.pairs()

    @pytest.mark.parametrize("bl,br", [(1, 1), (7, 13), (30, 40)])
    def test_batch_shape_invariance_topk(self, small_vectors, bl, br):
        left, right = small_vectors
        cond = TopKCondition(4)
        full = tensor_join(left, right, cond)
        batched = tensor_join(left, right, cond, batch_left=bl, batch_right=br)
        assert full.pairs() == batched.pairs()

    def test_peak_buffer_tracks_batch(self, small_vectors):
        left, right = small_vectors
        result = tensor_join(left, right, THRESHOLD, batch_left=5, batch_right=8)
        assert result.stats.peak_buffer_elements == 40

    def test_batch_invocations_counted(self, small_vectors):
        left, right = small_vectors  # 30 x 40
        result = tensor_join(left, right, THRESHOLD, batch_left=10, batch_right=20)
        assert result.stats.batch_invocations == 3 * 2

    def test_buffer_budget_respected(self, small_vectors):
        left, right = small_vectors
        budget = 400  # bytes -> 100 cells
        result = tensor_join(left, right, THRESHOLD, buffer_budget_bytes=budget)
        assert result.stats.peak_buffer_elements * 4 <= budget
        assert result.pairs() == tensor_join(left, right, THRESHOLD).pairs()

    def test_budget_too_small(self):
        with pytest.raises(BufferBudgetError):
            resolve_batch_shape(10, 10, buffer_budget_bytes=2)


class TestSelectAcrossBlockShapes:
    """The shared select must not let the block shape show in the result:
    same ids in the same order, scores equal up to GEMM block rounding."""

    N_RIGHT = 5000

    @pytest.fixture(scope="class")
    def relations(self):
        from repro.workloads.synthetic import clustered_vectors

        right, _ = clustered_vectors(self.N_RIGHT, 24, n_clusters=20, seed=7)
        left, _ = clustered_vectors(60, 24, n_clusters=20, seed=8)
        # Exact duplicates far apart: score ties across chunk and block
        # boundaries that only the id tie-break can order.
        right[4097] = right[3]
        right[64] = right[3]
        left[0] = right[3]
        return left, right

    @pytest.mark.parametrize("batch_right", [1, 7, 4096, N_RIGHT])
    @pytest.mark.parametrize(
        "condition",
        [TopKCondition(8), TopKCondition(8, min_similarity=0.5),
         TopKCondition(1), ThresholdCondition(0.6)],
        ids=["top8", "top8-min", "top1", "threshold"],
    )
    def test_ids_identical_for_any_right_edge(self, relations, condition, batch_right):
        left, right = relations
        want = tensor_join(left, right, condition)
        got = tensor_join(left, right, condition, batch_right=batch_right)
        assert got.stats.extra["batch_shape"][1] == batch_right
        np.testing.assert_array_equal(got.left_ids, want.left_ids)
        np.testing.assert_array_equal(got.right_ids, want.right_ids)
        np.testing.assert_allclose(got.scores, want.scores, atol=1e-6)

    def test_matches_full_sort_oracle(self, relations):
        left, right = relations
        scores = normalize_rows(left) @ normalize_rows(right).T
        want = np.argsort(-scores, axis=1, kind="stable")[:, :8]
        got = tensor_join(left, right, TopKCondition(8))
        np.testing.assert_array_equal(got.right_ids.reshape(len(left), 8), want)
        assert got.right_ids[:3].tolist() == [3, 64, 4097]  # exact ties, id asc

    def test_k_at_least_n_right_returns_everything(self, small_vectors):
        left, right = small_vectors
        result = tensor_join(left, right, TopKCondition(len(right) + 5), batch_right=16)
        assert len(result) == len(left) * len(right)

    @pytest.mark.parametrize("bl,br", [(None, None), (7, 13), (1, 4096), (60, 1)])
    def test_threshold_pairs_in_canonical_order(self, relations, bl, br):
        left, right = relations
        result = tensor_join(
            left, right, ThresholdCondition(0.6), batch_left=bl, batch_right=br
        )
        assert len(result) > 0
        keys = result.left_ids * len(right) + result.right_ids
        assert (np.diff(keys) > 0).all()  # (left asc, right asc), no duplicates

    def test_threshold_equal_to_an_attained_score(self, relations):
        left, right = relations
        scores = normalize_rows(left) @ normalize_rows(right).T
        attained = float(scores[5, 3])
        result = tensor_join(left, right, ThresholdCondition(attained))
        rows, cols = np.nonzero(scores >= np.float32(attained))
        assert result.pairs() == set(zip(rows.tolist(), cols.tolist()))

    def test_default_block_is_cache_sized_and_accounted(self, relations):
        from repro.vector.select import BLOCK_BYTES

        left, right = relations
        wide = np.concatenate([right] * 15)  # 60 x 75,000 floats
        assert len(left) * len(wide) * 4 > BLOCK_BYTES
        result = tensor_join(left, wide, TopKCondition(8))
        bl, br = result.stats.extra["batch_shape"]
        assert bl == len(left) and br < len(wide)
        assert bl * br * 4 <= BLOCK_BYTES
        assert result.stats.peak_buffer_elements == bl * br
        # The peak covers the score buffer plus maxima and pooled triples.
        assert result.stats.extra["peak_intermediate_bytes"] > bl * br * 4


class TestResolveBatchShape:
    def test_defaults_to_full(self):
        assert resolve_batch_shape(100, 200) == (100, 200)

    def test_explicit_clamped(self):
        assert resolve_batch_shape(10, 10, batch_left=50, batch_right=3) == (10, 3)

    def test_budget_square(self):
        bl, br = resolve_batch_shape(1000, 1000, buffer_budget_bytes=4 * 10_000)
        assert bl * br <= 10_000

    def test_empty_inputs(self):
        assert resolve_batch_shape(0, 5) == (1, 5)


class TestNonBatched:
    def test_same_results_as_batched(self, small_vectors):
        left, right = small_vectors
        assert (
            tensor_join_non_batched(left, right, THRESHOLD).pairs()
            == tensor_join(left, right, THRESHOLD).pairs()
        )

    def test_topk(self, small_vectors):
        left, right = small_vectors
        cond = TopKCondition(2)
        assert (
            tensor_join_non_batched(left, right, cond).pairs()
            == tensor_join(left, right, cond).pairs()
        )

    def test_one_invocation_per_left_row(self, small_vectors):
        left, right = small_vectors
        result = tensor_join_non_batched(left, right, THRESHOLD)
        assert result.stats.batch_invocations == len(left)


class TestInputHandling:
    def test_raw_items_with_model(self, hash_model):
        left = ["alpha", "beta"]
        right = ["alpha", "gamma", "beta"]
        result = tensor_join(left, right, ThresholdCondition(0.95), model=hash_model)
        assert (0, 0) in result.pairs()
        assert (1, 2) in result.pairs()
        assert result.stats.model_calls == 5

    def test_assume_normalized_skips_renormalization(self, small_vectors):
        left, right = small_vectors  # already unit vectors
        a = tensor_join(left, right, THRESHOLD)
        b = tensor_join(left, right, THRESHOLD, assume_normalized=True)
        assert a.pairs() == b.pairs()

    def test_unnormalized_inputs_handled(self):
        rng = np.random.default_rng(60)
        left = (rng.standard_normal((10, 4)) * 5).astype(np.float32)
        right = (rng.standard_normal((12, 4)) * 0.1).astype(np.float32)
        got = tensor_join(left, right, THRESHOLD).pairs()
        expected = tensor_join(
            normalize_rows(left), normalize_rows(right), THRESHOLD
        ).pairs()
        assert got == expected

    def test_dim_mismatch(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(DimensionalityError):
            tensor_join(left, right[:, :3], THRESHOLD)

    def test_empty_left(self, small_vectors):
        _, right = small_vectors
        result = tensor_join(np.empty((0, 8), dtype=np.float32), right, THRESHOLD)
        assert len(result) == 0

    def test_empty_right(self, small_vectors):
        left, _ = small_vectors
        result = tensor_join(left, np.empty((0, 8), dtype=np.float32), THRESHOLD)
        assert len(result) == 0

    def test_stats_populated(self, small_vectors):
        left, right = small_vectors
        result = tensor_join(left, right, THRESHOLD)
        assert result.stats.strategy == "tensor"
        assert result.stats.n_left == 30
        assert result.stats.n_right == 40
        assert result.stats.similarity_evaluations == 1200
        assert result.stats.seconds > 0
