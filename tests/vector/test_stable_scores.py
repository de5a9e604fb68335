"""The shape-stable exact scoring kernel and the eselect scan contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ThresholdCondition, TopKCondition, eselect
from repro.core.eselect import exact_select
from repro.vector import normalize_rows, normalize_vector, stable_dot_scores
from repro.workloads import unit_vectors


@pytest.fixture()
def data():
    matrix = normalize_rows(unit_vectors(500, 24, stream="stable/rows"))
    query = normalize_vector(unit_vectors(1, 24, stream="stable/q")[0])
    return matrix, query


class TestStableDotScores:
    def test_matches_float64_reference(self, data):
        matrix, query = data
        got = stable_dot_scores(matrix, query)
        ref = (matrix.astype(np.float64) @ query.astype(np.float64)).astype(
            np.float32
        )
        assert np.allclose(got, ref, atol=1e-6)

    def test_row_subsets_are_bit_stable(self, data):
        """The defining property: gathering rows never changes their score."""
        matrix, query = data
        full = stable_dot_scores(matrix, query)
        rng = np.random.default_rng(7)
        for size in (1, 3, 50, 499):
            sel = np.sort(rng.choice(len(matrix), size=size, replace=False))
            assert np.array_equal(stable_dot_scores(matrix[sel], query), full[sel])

    def test_blocking_is_bit_stable(self, data):
        matrix, query = data
        full = stable_dot_scores(matrix, query)
        for block in (7, 64, 100, 500):
            parts = [
                stable_dot_scores(matrix[i : i + block], query)
                for i in range(0, len(matrix), block)
            ]
            assert np.array_equal(np.concatenate(parts), full)

    def test_shape_validation(self, data):
        matrix, query = data
        with pytest.raises(Exception):
            stable_dot_scores(matrix, query[:5])
        with pytest.raises(Exception):
            stable_dot_scores(query, query)


class TestExactSelectors:
    def test_threshold_superset_invariance(self, data):
        """Any candidate superset yields the same emitted ids/scores."""
        matrix, query = data
        exact = stable_dot_scores(matrix, query)
        t = float(np.quantile(exact, 0.9))
        true_ids = np.nonzero(exact >= t)[0]
        tight = true_ids
        wide = np.arange(len(matrix))
        rng = np.random.default_rng(3)
        padded = np.sort(
            np.union1d(true_ids, rng.choice(len(matrix), size=50, replace=False))
        )
        outputs = [
            exact_select(matrix, cand, query, ThresholdCondition(t))
            for cand in (tight, wide, padded)
        ]
        for ids, scores, _ in outputs[1:]:
            assert np.array_equal(ids, outputs[0][0])
            assert np.array_equal(scores, outputs[0][1])

    def test_topk_superset_invariance(self, data):
        matrix, query = data
        exact = stable_dot_scores(matrix, query)
        k = 7
        true_top = np.argsort(-exact, kind="stable")[:k]
        wide = np.arange(len(matrix))
        rng = np.random.default_rng(4)
        padded = np.union1d(
            true_top, rng.choice(len(matrix), size=60, replace=False)
        )
        outputs = [
            exact_select(matrix, cand, query, TopKCondition(k))
            for cand in (true_top, wide, padded)
        ]
        for ids, scores, _ in outputs[1:]:
            assert np.array_equal(ids, outputs[0][0])
            assert np.array_equal(scores, outputs[0][1])

    def test_topk_tie_break_by_id(self):
        matrix = np.tile(
            normalize_vector(np.ones(8, dtype=np.float32)), (6, 1)
        )
        query = normalize_vector(np.ones(8, dtype=np.float32))
        ids, _, _ = exact_select(matrix, np.arange(6), query, TopKCondition(3))
        assert ids.tolist() == [0, 1, 2]


class TestESelectContract:
    def test_prenormalized_matches_inline(self, data):
        """assume_normalized shares bits with inline normalization."""
        matrix, query = data
        for condition in (TopKCondition(5), ThresholdCondition(0.2)):
            inline = eselect(matrix, query, condition)
            shared = eselect(matrix, query, condition, assume_normalized=True)
            # matrix is already normalized, so normalize_rows(matrix) has
            # slightly different bits — yet emitted results must agree
            # because the exact kernel defines the scores.
            assert np.array_equal(inline.ids, shared.ids)
            assert np.allclose(inline.scores, shared.scores, atol=1e-6)

    def test_duplicate_heavy_topk_deterministic(self):
        """A plateau of duplicates wider than the prescreen pad still
        resolves to smallest-id winners (the widening pass guarantees a
        provable superset)."""
        base = unit_vectors(4, 16, stream="stable/dup")
        matrix = np.repeat(base, 60, axis=0)  # 240 rows, plateaus of 60
        query = normalize_vector(base[0])
        result = eselect(matrix, query, TopKCondition(10))
        assert result.ids.tolist() == list(range(10))
