"""Unit tests for the bounded streaming top-k merger."""

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.vector import StreamingTopK, top_k_per_row


def brute_force(scores: np.ndarray, k: int):
    ids = top_k_per_row(scores, k)
    return ids, np.take_along_axis(scores, ids, axis=1)


def push_block(merger: StreamingTopK, block: np.ndarray, offset: int) -> None:
    """Feed one score block the way the serving scans do: per-block
    ``top_k_per_row``, then the dense candidate merge."""
    local, picked = brute_force(block, merger.k)
    merger.update(local + offset, picked)


class TestStreamingTopK:
    def test_matches_full_matrix_selection(self):
        rng = np.random.default_rng(7)
        scores = rng.random((20, 50)).astype(np.float32)
        merger = StreamingTopK(20, 5)
        for r0 in range(0, 50, 13):  # uneven blocks on purpose
            push_block(merger, scores[:, r0 : r0 + 13], r0)
        ids, picked = merger.finalize()
        want_ids, want_scores = brute_force(scores, 5)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(picked, want_scores)

    def test_block_shape_independence(self):
        rng = np.random.default_rng(11)
        scores = rng.random((8, 64)).astype(np.float32)
        outputs = []
        for block in (1, 7, 16, 64):
            merger = StreamingTopK(8, 3)
            for r0 in range(0, 64, block):
                push_block(merger, scores[:, r0 : r0 + block], r0)
            outputs.append(merger.finalize())
        for ids, picked in outputs[1:]:
            np.testing.assert_array_equal(ids, outputs[0][0])
            np.testing.assert_allclose(picked, outputs[0][1])

    def test_ties_prefer_earlier_candidates(self):
        scores = np.ones((2, 6), dtype=np.float32)
        merger = StreamingTopK(2, 2)
        push_block(merger, scores[:, :3], 0)
        push_block(merger, scores[:, 3:], 3)
        ids, _ = merger.finalize()
        np.testing.assert_array_equal(ids, [[0, 1], [0, 1]])

    def test_state_stays_bounded(self):
        merger = StreamingTopK(4, 3)
        rng = np.random.default_rng(3)
        for r0 in range(0, 1000, 100):
            push_block(merger, rng.random((4, 100)).astype(np.float32), r0)
            assert merger.width <= 3

    def test_fewer_candidates_than_k(self):
        merger = StreamingTopK(3, 10)
        push_block(merger, np.ones((3, 4), dtype=np.float32), 0)
        ids, picked = merger.finalize()
        assert ids.shape == (3, 4)
        assert picked.shape == (3, 4)

    def test_empty_finalize(self):
        ids, picked = StreamingTopK(5, 2).finalize()
        assert ids.shape == (5, 0)
        assert picked.shape == (5, 0)

    def test_generic_update_candidates(self):
        merger = StreamingTopK(1, 2)
        merger.update(
            np.array([[10, 20, 30]]),
            np.array([[0.1, 0.9, 0.5]], dtype=np.float32),
        )
        merger.update(np.array([[40]]), np.array([[0.7]], dtype=np.float32))
        ids, picked = merger.finalize()
        np.testing.assert_array_equal(ids, [[20, 40]])
        np.testing.assert_allclose(picked, [[0.9, 0.7]])

    def test_invalid_k(self):
        with pytest.raises(DimensionalityError, match="k must be"):
            StreamingTopK(3, 0)

    def test_row_count_mismatch(self):
        merger = StreamingTopK(3, 2)
        with pytest.raises(DimensionalityError, match="rows"):
            push_block(merger, np.ones((2, 4), dtype=np.float32), 0)
