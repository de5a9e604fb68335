"""Chaos: killed shard workers respawn, stay exact, and never leak memory."""

from __future__ import annotations

import time

import numpy as np
import pytest

from _shard_utils import KEY, N_ROWS, corpus_vectors, make_engine, normalized_for
from repro.core import TopKCondition
from repro.core.eselect import PRESCREEN_MARGIN, exact_select
from repro.errors import ShardError
from repro.shard import ShardPool, leaked_segments

pytestmark = [pytest.mark.shard, pytest.mark.chaos]

K = 5
KPAD = K + 32


def _scan(pool, queries):
    nq = len(queries)
    return pool.scan_candidates(
        KEY,
        queries,
        n_rows=N_ROWS,
        topk_rows=list(range(nq)),
        kpad=KPAD,
        thr_rows=[],
        thr_floors=np.empty(0, dtype=np.float32),
    )


def _kill_worker(pool, shard_id: int = 0) -> None:
    proc = pool._workers[shard_id].proc
    proc.kill()
    proc.join(timeout=5.0)
    assert not proc.is_alive()


def test_killed_worker_respawns_and_results_stay_exact(query_vectors):
    vectors = corpus_vectors()
    engine = make_engine(vectors)
    normalized = normalized_for(engine)
    pool = ShardPool(engine, 2, min_rows=1)
    prefix = pool.segment_prefix
    try:
        first = _scan(pool, query_vectors)
        assert first is not None

        _kill_worker(pool)
        result = _scan(pool, query_vectors)
        assert result is not None

        health = pool.worker_health()
        assert health["worker_deaths"] >= 1
        assert health["respawns"] >= 1
        assert health["alive"] == 2

        all_rows = np.arange(N_ROWS)
        for j, qvec in enumerate(query_vectors):
            ids_ref, scores_ref, _ = exact_select(
                normalized, all_rows, qvec, TopKCondition(K)
            )
            assert result.heap_floor[j] <= np.min(scores_ref) - PRESCREEN_MARGIN
            ids_got, scores_got, rescanned = exact_select(
                normalized, result.heap_ids[j], qvec, TopKCondition(K),
                float(result.heap_floor[j]),
            )
            assert not rescanned  # the floor above proves the candidates
            assert np.array_equal(ids_got, ids_ref)
            assert np.array_equal(scores_got, scores_ref)
    finally:
        pool.close()
    assert leaked_segments(prefix) == [], (
        "respawn path leaked shared-memory segments"
    )


def test_respawn_budget_exhaustion_raises_and_still_cleans_up(query_vectors):
    engine = make_engine()
    pool = ShardPool(engine, 2, min_rows=1, max_respawns=0)
    prefix = pool.segment_prefix
    try:
        assert _scan(pool, query_vectors) is not None
        _kill_worker(pool)
        with pytest.raises(ShardError):
            _scan(pool, query_vectors)
        assert pool.stats.errors >= 1
    finally:
        pool.close()
    assert leaked_segments(prefix) == [], (
        "failed fan-out leaked shared-memory segments"
    )


def test_repeated_kills_within_budget_keep_serving(query_vectors):
    engine = make_engine()
    pool = ShardPool(engine, 2, min_rows=1, max_respawns=2)
    prefix = pool.segment_prefix
    try:
        for round_no in range(2):
            _kill_worker(pool, shard_id=round_no % 2)
            # Give the OS a beat to reap before the pool polls liveness.
            time.sleep(0.02)
            result = _scan(pool, query_vectors)
            assert result is not None, f"round {round_no}: scan declined"
            assert result.n_shards == 2
        assert pool.worker_health()["respawns"] >= 2
    finally:
        pool.close()
    assert leaked_segments(prefix) == []
