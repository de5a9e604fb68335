"""ShardPool: fan-out exactness, costing, and hygiene.

Exactness here means the end-to-end contract: pool candidates are
provable supersets, and the front door's float64 exact rescore over them
(:func:`repro.core.eselect.exact_select`) yields ids
and scores bit-identical to the same rescore over *all* rows — on a
corpus built so every score ties across the shard boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from _shard_utils import KEY, N_ROWS, corpus_vectors, make_engine, normalized_for
from repro.core import ThresholdCondition, TopKCondition
from repro.core.eselect import PRESCREEN_MARGIN, exact_select
from repro.shard import ShardPool, leaked_segments

pytestmark = pytest.mark.shard

K = 5
KPAD = K + 32
THRESHOLD = 0.2
TOPK, ABOVE = TopKCondition(K), ThresholdCondition(THRESHOLD)


@pytest.fixture(scope="module")
def setup():
    vectors = corpus_vectors()
    engine = make_engine(vectors)
    pool = ShardPool(engine, 2, min_rows=1)
    yield engine, pool, normalized_for(engine)
    pool.close()


def _scan(pool, queries, *, kpad=KPAD):
    nq = len(queries)
    return pool.scan_candidates(
        KEY,
        queries,
        n_rows=N_ROWS,
        topk_rows=list(range(nq)),
        kpad=kpad,
        thr_rows=list(range(nq)),
        thr_floors=np.full(nq, THRESHOLD - PRESCREEN_MARGIN, dtype=np.float32),
    )


class TestExactness:
    def test_rescored_results_bit_identical_to_serial(self, setup, query_vectors):
        engine, pool, normalized = setup
        result = _scan(pool, query_vectors)
        assert result is not None, "pool declined a fan-out-worthy scan"
        assert result.n_shards == 2
        assert result.rows == N_ROWS  # the shards partition every row once
        all_rows = np.arange(N_ROWS)
        for j, qvec in enumerate(query_vectors):
            ids_ref, scores_ref, _ = exact_select(normalized, all_rows, qvec, TOPK)
            kth = np.min(scores_ref) if len(scores_ref) else -np.inf
            # Soundness first: any row the shards dropped must provably
            # score at or below the merged floor.
            dropped = np.setdiff1d(all_rows, result.heap_ids[j])
            exact_dropped = normalized[dropped] @ np.asarray(
                qvec, dtype=np.float64
            )
            assert np.all(exact_dropped <= result.heap_floor[j] + 1e-5), (
                f"query {j}: dropped row beats the merged heap floor"
            )
            # Threshold hits are supersets independent of the top-k floor,
            # so their exact rescore is bitwise-stable.
            thr_ids_ref, thr_scores_ref, _ = exact_select(
                normalized, all_rows, qvec, ABOVE
            )
            thr_ids_got, thr_scores_got, _ = exact_select(
                normalized, result.thr_hits[j], qvec, ABOVE
            )
            assert np.array_equal(thr_ids_got, thr_ids_ref)
            assert np.array_equal(thr_scores_got, thr_scores_ref)
            # fp32 has a zero error bound: the merged floor proves the
            # candidates without the front door's fixed-floor pass.
            assert result.heap_floor[j] <= kth - PRESCREEN_MARGIN, (
                f"query {j}: merged heap floor above the exact k-th score"
            )
            ids_got, scores_got, rescanned = exact_select(
                normalized, result.heap_ids[j], qvec, TOPK,
                float(result.heap_floor[j]),
            )
            assert not rescanned
            assert np.array_equal(ids_got, ids_ref), (
                f"query {j}: top-{K} ids diverge"
            )
            assert np.array_equal(scores_got, scores_ref)

    def test_cross_boundary_duplicates_both_kept(self, setup, query_vectors):
        _, pool, normalized = setup
        result = _scan(pool, query_vectors)
        half = N_ROWS // 2
        for j, qvec in enumerate(query_vectors):
            ids, _, _ = exact_select(normalized, result.heap_ids[j], qvec, TOPK)
            # Every selected row's equal-scoring twin lives in the other
            # shard; with K an odd count some pairs split, but at least
            # one duplicate pair must have been kept whole.
            pairs = sum(
                1 for i in ids if (i + half) % N_ROWS in set(ids)
            )
            assert pairs >= 2, f"query {j}: no cross-shard tie pair survived"


class TestCosting:
    def test_small_tables_stay_in_process(self, query_vectors):
        engine = make_engine()
        pool = ShardPool(engine, 2)  # production min_rows floor applies
        try:
            assert not pool.should_shard(N_ROWS, len(query_vectors), 16)
            assert _scan(pool, query_vectors) is None
            assert pool.stats.declined == 1
        finally:
            pool.close()

    def test_empty_query_batch_declines(self, setup):
        _, pool, _ = setup
        empty = np.empty((0, 16), dtype=np.float32)
        assert _scan(pool, empty) is None


class TestHygiene:
    def test_health_stats_and_segments(self, setup, query_vectors):
        _, pool, _ = setup
        _scan(pool, query_vectors)
        health = pool.worker_health()
        assert health["procs"] == 2
        assert health["alive"] == 2
        assert health["worker_deaths"] == 0
        snap = pool.stats_snapshot()
        assert snap["scans"] >= 1
        assert snap["segments"] >= 1
        assert snap["rows_scanned"] >= N_ROWS

    def test_close_unlinks_everything_and_is_idempotent(self, query_vectors):
        engine = make_engine()
        pool = ShardPool(engine, 2, min_rows=1)
        _scan(pool, query_vectors)
        prefix = pool.segment_prefix
        assert leaked_segments(prefix) != []
        pool.close()
        pool.close()
        assert leaked_segments(prefix) == []
        assert _scan(pool, query_vectors) is None  # closed pools decline
