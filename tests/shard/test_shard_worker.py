"""The worker's scan, driven in-process: what it builds once, what it returns.

``_attach_store`` / ``_run_scan`` are the bodies of the worker's
``publish`` / ``scan`` tasks; calling them directly lets a test count
blocks and compare against one whole-matrix GEMM, which a spawned process
would hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard import leaked_segments
from repro.shard.store import SegmentOwner
from repro.shard.envelope import open_task
from repro.shard.worker import _attach_store, _run_scan
from repro.workloads import unit_vectors

pytestmark = pytest.mark.shard

DIM = 16
N_ROWS = 40_000  # 64 queries x 40,000 rows is 10 MB of scores: two 8 MiB blocks
KEY = ["corpus", "emb", "m"]
K = 7
FLOOR = 0.6


class _Pipe:
    """Stands in for the worker's connection: keeps what was sent."""

    def __init__(self) -> None:
        self.sent: list[dict] = []

    def send(self, message: dict) -> None:
        self.sent.append(message)


@pytest.fixture(scope="module")
def corpus() -> np.ndarray:
    return unit_vectors(N_ROWS, DIM, stream="shard-worker/base").astype(np.float32)


def _published(owner: SegmentOwner, rows: np.ndarray) -> dict:
    tables: dict = {}
    _attach_store(
        tables,
        {"key": KEY, "version": 1, "ranges": [(0, len(rows))], "spec": owner.publish(rows)},
    )
    return tables


def _scan(tables: dict, queries: np.ndarray) -> dict:
    rows = np.arange(len(queries))
    kind, reply = open_task(
        _run_scan(
            _Pipe(), 0, tables,
            {
                "task_id": 1, "key": KEY, "version": 1, "queries": queries, "topk_rows": rows, "kpad": K,
                "thr_rows": rows,
                "thr_floors": np.full(len(queries), FLOOR, np.float32),
            },
        )
    )
    assert kind == "result" and reply["rows"] == N_ROWS
    return reply


def _assert_matches(reply: dict, reference: np.ndarray) -> None:
    """``reference``: the whole ``(n_queries, N_ROWS)`` score matrix of
    another GEMM orientation — the same cells up to rounding."""
    n = len(reference)
    ids = np.asarray(reply["topk_ids"]).reshape(n, K)
    scores = np.asarray(reply["topk_scores"]).reshape(n, K)
    assert np.asarray(reply["topk_rows"]).tolist() == np.repeat(np.arange(n), K).tolist()
    for row in range(n):
        order = np.lexsort((np.arange(N_ROWS), -reference[row]))[:K]
        hits = np.asarray(reply["thr_hits"][row])
        assert np.allclose(scores[row], reference[row, order], atol=1e-5)
        assert np.allclose(reference[row, ids[row]], scores[row], atol=1e-5)
        sure = np.flatnonzero(reference[row] >= FLOOR + 1e-5)
        maybe = np.flatnonzero(reference[row] >= FLOOR - 1e-5)
        assert set(sure.tolist()) <= set(hits.tolist()) <= set(maybe.tolist())


@pytest.mark.parametrize("n_queries", [1, 2, 64, 65])
def test_scan_matches_the_whole_matrix_kernel(corpus, n_queries):
    """One GEMV for a query, row-major blocks for a group: the candidates
    and hits of one whole-matrix GEMM, up to its rounding."""
    queries = unit_vectors(n_queries, DIM, stream="shard-worker/q").astype(np.float32)
    owner = SegmentOwner()
    try:
        tables = _published(owner, corpus)
        reply = _scan(tables, queries)
        _assert_matches(reply, queries @ corpus.T)
        # One block constant (8 MiB, tools/sweep_blocks.py: the select is
        # the cheaper per cell the wider the block): 32,768 columns of a
        # 64-query group, two blocks; one query scans the range as one.
        assert reply["blocks"] == {1: 1, 2: 1, 64: 2, 65: 2}[n_queries]
        tables[tuple(KEY)]["segment"].close()
    finally:
        owner.close()
    assert leaked_segments(owner.prefix) == []
