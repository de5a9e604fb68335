"""Unit tests for the index-probe E-join."""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_PROBE_K,
    ThresholdCondition,
    TopKCondition,
    index_join,
    tensor_join,
)
from repro.errors import DimensionalityError, JoinError
from repro.index import FlatIndex, HNSWIndex


@pytest.fixture()
def flat_index(small_vectors):
    _, right = small_vectors
    idx = FlatIndex(right.shape[1])
    idx.add(right)
    return idx


class TestExactIndexEquivalence:
    def test_topk_matches_tensor(self, small_vectors, flat_index):
        """Against an exact (flat) index, the index join equals the scan."""
        left, right = small_vectors
        for k in (1, 3):
            got = index_join(left, flat_index, TopKCondition(k)).pairs()
            expected = tensor_join(left, right, TopKCondition(k)).pairs()
            assert got == expected

    def test_topk_min_similarity(self, small_vectors, flat_index):
        left, right = small_vectors
        cond = TopKCondition(5, min_similarity=0.4)
        got = index_join(left, flat_index, cond).pairs()
        expected = tensor_join(left, right, cond).pairs()
        assert got == expected


class TestThresholdEmulation:
    def test_threshold_via_probe_k(self, small_vectors, flat_index):
        """A range condition on an index = top-probe_k + post-filter."""
        left, right = small_vectors
        cond = ThresholdCondition(0.4)
        got = index_join(left, flat_index, cond, probe_k=40).pairs()
        expected = tensor_join(left, right, cond).pairs()
        assert got == expected  # probe_k covers the whole base: no loss

    def test_small_probe_k_loses_pairs(self, small_vectors, flat_index):
        """With probe_k below the real match count, the index misses pairs
        (the Figure 17 flexibility limitation)."""
        left, right = small_vectors
        cond = ThresholdCondition(0.0)  # matches ~half of all pairs
        limited = index_join(left, flat_index, cond, probe_k=2)
        exact = tensor_join(left, right, cond)
        assert len(limited) < len(exact)
        assert limited.pairs() <= exact.pairs()

    def test_default_probe_k(self, small_vectors, flat_index):
        left, _ = small_vectors
        result = index_join(left, flat_index, ThresholdCondition(0.4))
        assert result.stats.extra["probe_k"] == DEFAULT_PROBE_K

    def test_invalid_probe_k(self, small_vectors, flat_index):
        left, _ = small_vectors
        with pytest.raises(JoinError):
            index_join(left, flat_index, ThresholdCondition(0.4), probe_k=0)


class TestPreFilter:
    def test_allowed_ids_only(self, small_vectors, flat_index):
        left, right = small_vectors
        allowed = np.zeros(len(right), dtype=bool)
        allowed[5:15] = True
        result = index_join(left, flat_index, TopKCondition(2), allowed=allowed)
        assert set(result.right_ids.tolist()) <= set(range(5, 15))

    def test_prefilter_matches_filtered_scan(self, small_vectors, flat_index):
        left, right = small_vectors
        allowed = np.zeros(len(right), dtype=bool)
        allowed[:20] = True
        got = index_join(left, flat_index, TopKCondition(1), allowed=allowed).pairs()
        scan = tensor_join(left, right[:20], TopKCondition(1)).pairs()
        assert got == scan


class TestHNSWJoin:
    def test_high_recall_against_exact(self, small_vectors):
        left, right = small_vectors
        hnsw = HNSWIndex(right.shape[1], m=8, ef_construction=64, ef_search=40, seed=70)
        hnsw.add(right)
        got = index_join(left, hnsw, TopKCondition(3)).pairs()
        expected = tensor_join(left, right, TopKCondition(3)).pairs()
        recall = len(got & expected) / len(expected)
        assert recall >= 0.9

    def test_stats(self, small_vectors):
        left, right = small_vectors
        hnsw = HNSWIndex(right.shape[1], m=4, ef_construction=32, seed=71)
        hnsw.add(right)
        result = index_join(left, hnsw, TopKCondition(1))
        assert result.stats.strategy == "index/hnswindex"
        assert result.stats.similarity_evaluations > 0
        assert result.stats.n_right == len(right)


class TestValidation:
    def test_dim_mismatch(self, small_vectors, flat_index):
        left, _ = small_vectors
        with pytest.raises(DimensionalityError):
            index_join(left[:, :4], flat_index, TopKCondition(1))

    def test_raw_items_need_model(self, flat_index):
        with pytest.raises(JoinError, match="model"):
            index_join(["a", "b"], flat_index, TopKCondition(1))
