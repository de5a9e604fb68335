"""merge_topk: the algebra the shard fan-out (and any span split) relies on.

The front door folds per-shard candidate triples in whatever order the
collect loop produced them, so the merge must not depend on that order —
and its tie-break (score descending, id ascending) must reproduce what a
serial ascending-block scan would have kept, even when equal scores
straddle shard boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scan import dense_score_block, merge_topk, scan_candidates
from repro.workloads import unit_vectors

pytestmark = pytest.mark.shard

N_ROWS = 5
K = 4


def _part(ids, scores):
    """Triples of one 'shard' from dense ``(N_ROWS, width)`` candidates,
    sorted the way ``TopKReducer.finalize`` hands them over."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float32)
    rows = np.repeat(np.arange(N_ROWS), ids.shape[1])
    ids, scores = ids.ravel(), scores.ravel()
    order = np.lexsort((ids, -scores, rows))
    return rows[order], ids[order], scores[order]


def _random_parts(seed: int, n_parts: int):
    """Disjoint id ranges per part, random scores — one part per 'shard'."""
    rng = np.random.default_rng(seed)
    parts = []
    for p in range(n_parts):
        width = int(rng.integers(1, 7))
        ids = np.stack(
            [
                rng.choice(np.arange(p * 100, p * 100 + 50), width, replace=False)
                for _ in range(N_ROWS)
            ]
        )
        parts.append(_part(ids, rng.random((N_ROWS, width), dtype=np.float32)))
    return parts


def _state(parts):
    ids, floors = merge_topk(parts, N_ROWS, K)
    return [row.tolist() for row in ids], floors.tolist()


class TestMergeAlgebra:
    def test_order_of_parts_is_irrelevant(self):
        for seed in range(5):
            a, b, c = _random_parts(seed, 3)
            want = _state([a, b, c])
            for order in ([a, c, b], [b, a, c], [c, b, a]):
                assert _state(order) == want

    def test_single_part_passes_through(self):
        (a,) = _random_parts(3, 1)
        ids, floors = merge_topk([a], N_ROWS, K)
        rows, part_ids, _ = a
        for j in range(N_ROWS):
            assert ids[j].tolist() == part_ids[rows == j].tolist()

    def test_floor_is_kth_best_or_minus_inf(self):
        full = _part([[0, 1, 2, 3, 4]] * N_ROWS, [[0.5, 0.4, 0.3, 0.2, 0.1]] * N_ROWS)
        short = _part([[10, 11]] * N_ROWS, [[0.9, 0.8]] * N_ROWS)
        ids, floors = merge_topk([full, short], N_ROWS, K)
        assert ids[0].tolist() == [10, 11, 0, 1]
        assert floors.tolist() == pytest.approx([0.4] * N_ROWS)
        # Fewer than K candidates in total: nothing was dropped anywhere.
        _, floors = merge_topk([short], N_ROWS, K)
        assert np.all(np.isneginf(floors))


class TestMergeTieBreaks:
    def test_equal_scores_keep_lowest_ids(self):
        # Both 'shards' offer the same scores under different ids; the
        # merged set must keep the lowest ids, like a serial scan that
        # saw ascending ids first.
        low = _part([[0, 1, 2]] * N_ROWS, [[0.9, 0.9, 0.1]] * N_ROWS)
        high = _part([[10, 11, 12]] * N_ROWS, [[0.9, 0.9, 0.9]] * N_ROWS)
        for parts in ([high, low], [low, high]):
            ids, _ = merge_topk(parts, N_ROWS, K)
            assert ids[0].tolist() == [0, 1, 10, 11]

    def test_sharded_boundary_ties_match_serial_scan(self):
        # A corpus whose second half duplicates the first: every score
        # ties across the half boundary.  Serial = one pass over the whole
        # matrix; sharded = per-half passes merged.
        half = unit_vectors(40, 8, stream="merge-ties/base").astype(np.float32)
        corpus = np.concatenate([half, half], axis=0)
        queries = unit_vectors(N_ROWS, 8, stream="merge-ties/q").astype(
            np.float32
        )

        def scan(lo, hi):
            return scan_candidates(
                dense_score_block(corpus, queries),
                lo, hi, N_ROWS, range(N_ROWS), K, (), (),
            ).triples

        serial = _state([scan(0, 80)])
        parts = [scan(0, 40), scan(40, 80)]
        assert _state(parts) == serial
        assert _state(parts[::-1]) == serial
