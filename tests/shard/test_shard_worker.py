"""The worker's scan, driven in-process: what it builds once, what it returns.

``_attach_store`` / ``_run_scan`` are the bodies of the worker's
``publish`` / ``scan`` tasks; calling them directly lets a test count
calls and compare against the quantizers' whole-matrix kernels, which a
spawned process would hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard import leaked_segments
from repro.shard.store import SegmentOwner
from repro.shard.envelope import open_task
from repro.shard.worker import _attach_store, _close_views, _run_scan
from repro.vector import Int8Quantizer, ProductQuantizer
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.shard, pytest.mark.quant]

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


def _published(owner: SegmentOwner, precision: str, quantizer, codes) -> dict:
    tables: dict = {}
    _attach_store(
        tables,
        {
            "key": KEY,
            "version": 1,
            "ranges": [(0, len(codes))],
            "specs": {precision: owner.publish(codes)},
            "quantizers": {precision: quantizer},
        },
    )
    return tables


def _scan(tables: dict, precision: str, queries: np.ndarray) -> dict:
    rows = np.arange(len(queries))
    kind, reply = open_task(
        _run_scan(
            _Pipe(), 0, tables,
            {
                "task_id": 1, "key": KEY, "version": 1, "precision": precision,
                "queries": queries, "topk_rows": rows, "kpad": K,
                "thr_rows": rows,
                "thr_floors": np.full(len(queries), FLOOR, np.float32),
            },
        )
    )
    assert kind == "result" and reply["rows"] == N_ROWS
    return reply


def _assert_matches(reply: dict, reference: np.ndarray, *, exact: bool) -> None:
    """``reference``: the whole ``(n_queries, N_ROWS)`` approximate matrix."""
    n = len(reference)
    ids = np.asarray(reply["topk_ids"]).reshape(n, K)
    scores = np.asarray(reply["topk_scores"]).reshape(n, K)
    assert np.asarray(reply["topk_rows"]).tolist() == np.repeat(np.arange(n), K).tolist()
    for row in range(n):
        order = np.lexsort((np.arange(N_ROWS), -reference[row]))[:K]
        hits = np.asarray(reply["thr_hits"][row])
        above = np.flatnonzero(reference[row] >= FLOOR)
        if exact:
            assert ids[row].tolist() == order.tolist()
            assert np.array_equal(scores[row], reference[row, order])
            assert np.array_equal(hits, above)
        else:  # another GEMM orientation: same cells up to rounding
            assert np.allclose(scores[row], reference[row, order], atol=1e-5)
            assert np.allclose(reference[row, ids[row]], scores[row], atol=1e-5)
            sure = np.flatnonzero(reference[row] >= FLOOR + 1e-5)
            maybe = np.flatnonzero(reference[row] >= FLOOR - 1e-5)
            assert set(sure.tolist()) <= set(hits.tolist()) <= set(maybe.tolist())


def test_pq_scan_builds_the_one_hot_once(corpus, monkeypatch):
    quantizer = ProductQuantizer(DIM, m=4, ks=16, seed=5).fit(corpus)
    codes = quantizer.encode(corpus)
    queries = unit_vectors(64, DIM, stream="shard-worker/q").astype(np.float32)
    groups = [queries, queries[:1]]
    references = [quantizer.adc_scores(group, codes) for group in groups]

    built = []
    onehot = ProductQuantizer.onehot
    monkeypatch.setattr(
        ProductQuantizer, "onehot",
        lambda self, codes: built.append(len(codes)) or onehot(self, codes),
    )
    owner = SegmentOwner()
    try:
        tables = _published(owner, "pq", quantizer, codes)
        assert built == [N_ROWS]
        for group, reference in zip(groups, references):
            reply = _scan(tables, "pq", group)
            _assert_matches(reply, reference, exact=True)
        assert reply["blocks"] == 1  # one query: the whole range is a block
        # One block constant (8 MiB, tools/sweep_blocks.py: the select is
        # the cheaper per cell the wider the block): 32,768 columns of a
        # 64-query group, two blocks where 16,384-column ones made three.
        assert _scan(tables, "pq", queries)["blocks"] == 2
        assert built == [N_ROWS]  # three scans, five blocks, one build
        _close_views(tables[tuple(KEY)]["views"])
    finally:
        owner.close()
    assert leaked_segments(owner.prefix) == []


@pytest.mark.parametrize("n_queries", [1, 2, 64, 65])
def test_int8_scan_matches_the_whole_matrix_kernel(corpus, n_queries):
    """Thin groups run row-major, wide ones query-major; both are the
    quantizer's ``scores_block`` up to GEMM rounding, bias included."""
    quantizer = Int8Quantizer(DIM).fit(corpus)
    codes = quantizer.encode(corpus)
    queries = unit_vectors(n_queries, DIM, stream="shard-worker/q8").astype(np.float32)
    reference = quantizer.scores_block(quantizer.prepare_queries(queries), codes)
    owner = SegmentOwner()
    try:
        tables = _published(owner, "int8", quantizer, codes)
        _assert_matches(_scan(tables, "int8", queries), reference, exact=False)
        # The int8 scan rows are the segment's own array: closing must
        # drop them first or the map stays pinned.
        _close_views(tables[tuple(KEY)]["views"])
    finally:
        owner.close()
    assert leaked_segments(owner.prefix) == []
