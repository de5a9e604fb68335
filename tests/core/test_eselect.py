"""Unit tests for the E-selection operator."""

import numpy as np
import pytest

from repro.core import ThresholdCondition, TopKCondition, eselect
from repro.errors import DimensionalityError, JoinError
from repro.vector import normalize_rows


@pytest.fixture()
def relation(small_vectors):
    left, _ = small_vectors
    return left


@pytest.fixture()
def query(small_vectors):
    _, right = small_vectors
    return right[0]


class TestScanSelection:
    def test_threshold_matches_bruteforce(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        scores = normalize_rows(relation) @ query
        expected = set(np.nonzero(scores >= 0.3)[0].tolist())
        assert set(result.ids.tolist()) == expected

    def test_topk(self, relation, query):
        result = eselect(relation, query, TopKCondition(5))
        scores = normalize_rows(relation) @ query
        expected = np.argsort(-scores, kind="stable")[:5]
        assert result.ids.tolist() == expected.tolist()

    def test_topk_min_similarity(self, relation, query):
        result = eselect(
            relation, query, TopKCondition(10, min_similarity=0.5)
        )
        assert (result.scores >= 0.5).all()

    def test_raw_items_with_model(self, hash_model):
        items = ["barbecue", "barbeque", "piano"]
        result = eselect(items, "barbecue", TopKCondition(2), model=hash_model)
        assert result.ids[0] == 0  # exact match first
        assert result.ids[1] == 1  # misspelling second
        # |R| + 1 model calls: linear cost (E-Selection Cost).
        assert hash_model.usage.calls == len(items) + 1

    def test_query_dim_mismatch(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones(3, dtype=np.float32), TopKCondition(1))

    def test_query_must_be_1d(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones((2, 8)), TopKCondition(1))

    def test_raw_query_needs_model(self, relation):
        with pytest.raises(JoinError, match="model"):
            eselect(relation, "word", TopKCondition(1))

    def test_stats(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        assert result.stats.strategy == "eselect/scan"
        assert result.stats.similarity_evaluations == len(relation)
        assert result.stats.pairs_emitted == len(result)

