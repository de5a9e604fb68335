"""StreamingTopK.merge: the algebra the shard fan-out relies on.

The front door merges per-shard heaps in whatever grouping the collect
loop produces, so ``merge`` must be associative and commutative — and
its tie-break (score descending, id ascending) must reproduce what a
serial ascending-block scan would have kept, even when equal scores
straddle shard boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionalityError
from repro.vector.topk import StreamingTopK, top_k_per_row
from repro.workloads import unit_vectors

pytestmark = pytest.mark.shard

N_ROWS = 5
K = 4


def _heap_from(ids, scores) -> StreamingTopK:
    heap = StreamingTopK(N_ROWS, K)
    heap.update(
        np.asarray(ids, dtype=np.int64),
        np.asarray(scores, dtype=np.float32),
    )
    return heap


def _random_parts(seed: int, n_parts: int) -> list[StreamingTopK]:
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
        scores = rng.random((N_ROWS, width), dtype=np.float32)
        parts.append(_heap_from(ids, scores))
    return parts


def _state(heap: StreamingTopK):
    ids, scores = heap.finalize()
    return ids.tolist(), scores.tolist()


def _merged(parts) -> StreamingTopK:
    acc = StreamingTopK(N_ROWS, K)
    for part in parts:
        acc.merge(part)
    return acc


class TestMergeAlgebra:
    def test_associative(self):
        for seed in range(5):
            a, b, c = _random_parts(seed, 3)
            left = _merged([_merged([a, b]), c])
            a2, b2, c2 = _random_parts(seed, 3)
            right = _merged([a2, _merged([b2, c2])])
            assert _state(left) == _state(right)

    def test_commutative(self):
        for seed in range(5):
            a, b = _random_parts(seed, 2)
            a2, b2 = _random_parts(seed, 2)
            assert _state(_merged([a, b])) == _state(_merged([b2, a2]))

    def test_merge_empty_is_identity(self):
        (a,) = _random_parts(3, 1)
        before = _state(a)
        a.merge(StreamingTopK(N_ROWS, K))
        assert _state(a) == before
        empty = StreamingTopK(N_ROWS, K)
        empty.merge(_random_parts(3, 1)[0])
        assert _state(empty) == before

    def test_row_count_mismatch_raises(self):
        with pytest.raises(DimensionalityError):
            StreamingTopK(N_ROWS, K).merge(StreamingTopK(N_ROWS + 1, K))


class TestMergeTieBreaks:
    def test_equal_scores_keep_lowest_ids(self):
        # Both 'shards' offer the same scores under different ids; the
        # merged heap must keep the lowest ids, like a serial scan that
        # saw ascending ids first.
        low = _heap_from(
            [[0, 1, 2]] * N_ROWS, [[0.9, 0.9, 0.1]] * N_ROWS
        )
        high = _heap_from(
            [[10, 11, 12]] * N_ROWS, [[0.9, 0.9, 0.9]] * N_ROWS
        )
        merged = _merged([high, low])  # arrival order must not matter
        ids, scores = merged.finalize()
        assert ids[0].tolist() == [0, 1, 10, 11]
        assert scores[0].tolist() == pytest.approx([0.9, 0.9, 0.9, 0.9])

    def test_sharded_boundary_ties_match_serial_scan(self):
        # A corpus whose second half duplicates the first: every score
        # ties across the half boundary.  Serial = ascending blocks over
        # the whole matrix; sharded = per-half heaps merged.
        half = unit_vectors(40, 8, stream="merge-ties/base").astype(np.float32)
        corpus = np.concatenate([half, half], axis=0)
        queries = unit_vectors(N_ROWS, 8, stream="merge-ties/q").astype(
            np.float32
        )
        scores = queries @ corpus.T

        serial = StreamingTopK(N_ROWS, K)
        for start in range(0, corpus.shape[0], 16):
            block = scores[:, start : start + 16]
            local = top_k_per_row(block, K)
            serial.update(
                local + start, np.take_along_axis(block, local, axis=1)
            )

        parts = []
        for lo, hi in ((0, 40), (40, 80)):
            part = StreamingTopK(N_ROWS, K)
            ids = top_k_per_row(scores[:, lo:hi], K)
            part_scores = np.take_along_axis(scores[:, lo:hi], ids, axis=1)
            part.update(ids + lo, part_scores)
            parts.append(part)

        assert _state(_merged(parts)) == _state(serial)
        assert _state(_merged(parts[::-1])) == _state(serial)
