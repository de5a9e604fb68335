"""The blocked scan: the one loop under every scan join and served scan.

The paper's tensor formulation (Section IV-C, Figures 6-7) is one loop:
score a block of the relation against every query row, prune the score
block to qualifying cells *immediately*, keep a bounded buffer.  That loop
is :func:`scan_candidates` and nothing else in the package walks right
blocks.  Callers differ only in the *representation* scanned — the
``score_block`` closure they hand in (fp32 rows, an fp16 upcast, int8
codes or PQ one-hot rows through the quantizer's ``scorer``), with its
score-error ``bound`` and per-query ``bias`` — and in their exact
finalizer: served scans (:func:`~repro.core.eselect.select_group`, over
its own pass or the shard workers') re-score candidates with the
shape-stable exact kernel, the fp32 and fp16 joins emit the GEMM's own
scores, the quantized join re-ranks in fp32.

:func:`scan_join` is the one operator body under every scan join: ask
:func:`~repro.vector.select.scan_shape` for the block, cut the left side,
scan each left block with the representation's scorer, finalize, run the
blocks inline or on the engine, add up the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..engine import ExecutionEngine, serial_engine
from ..vector.kernels import row_major_scores
from ..vector.select import (
    TopKReducer,
    maxima_bytes,
    scan_shape,
    select_above,
    worth_scheduling,
)
from .conditions import JoinCondition, TopKCondition
from .result import JoinResult, JoinStats

#: ``(rows, ids, scores)`` candidate triples sorted by
#: ``(row, score desc, id asc)`` — :meth:`TopKReducer.finalize`'s order.
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class ScanResult:
    """What one :func:`scan_candidates` pass found, and what it cost."""

    #: Top-k rows' candidates; ``row`` indexes ``topk_rows``.  A row left
    #: with fewer than ``kpad`` triples dropped no cell.
    triples: Triples
    #: Threshold rows' hits sorted by ``(row, id)``; ``row`` indexes
    #: ``thr_rows``.
    hits: Triples
    blocks: int = 0
    #: Score cells computed (``n_queries`` x rows scanned).
    cells: int = 0
    #: The largest score block plus what the select held beside it (chunk
    #: maxima, pooled top-k triples).
    peak_bytes: int = 0


def dense_score_block(
    rows: np.ndarray, queries: np.ndarray
) -> Callable[[int, int], np.ndarray]:
    """The ``score_block`` of an fp32 relation held in memory."""
    return lambda start, stop: row_major_scores(rows[start:stop], queries)


def _take_rows(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``scores[rows]`` for sorted unique ``rows``, a view when they are
    every row or one contiguous run."""
    if len(rows) == scores.shape[0]:
        return scores
    if rows[-1] - rows[0] + 1 == len(rows):
        return scores[rows[0] : rows[-1] + 1]
    return scores[rows]


def split_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> list[np.ndarray]:
    """``values`` cut into one array per row, ``rows`` being sorted."""
    bounds = np.searchsorted(rows, np.arange(n_rows + 1))
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def scan_candidates(
    score_block: Callable[[int, int], np.ndarray],
    lo: int,
    hi: int,
    n_queries: int,
    topk_rows,
    kpad: int,
    thr_rows,
    thr_floors,
    *,
    budget_bytes: int | None = None,
    width: int | None = None,
    bound: float = 0.0,
    bias: np.ndarray | None = None,
    refine: Callable[[np.ndarray, np.ndarray, np.ndarray], Triples] | None = None,
) -> ScanResult:
    """One blocked pass over relation rows ``[lo, hi)``.

    Args:
        score_block: ``(start, stop) -> (n_queries, stop - start)``
            approximate fp32 scores, any strides.
        topk_rows: sorted query rows that need their ``kpad`` best cells.
        thr_rows: sorted query rows that need every cell whose true score
            reaches their entry of ``thr_floors`` (a scalar serves every
            row; a row may appear in both lists).
        budget_bytes: optional cap on one fp32 score block; the width is
            :func:`~repro.vector.select.scan_shape`'s for ``n_queries``
            pinned left rows.
        width: rows per block, for a caller that resolved its own shape.
        bound: the representation's score error; threshold floors drop by
            it, so no row whose true score reaches its floor is missed.
        bias: per-query constant ``score_block`` leaves out of its scores
            (the int8 affine term).  Ranking within a row does not need
            it; threshold floors are shifted by it and returned scores
            carry it.
        refine: ``(rows, ids, scores) -> triples`` applied to each block's
            threshold hits before they are pooled (an exact re-score and
            filter), so what the scan holds across blocks is output, not
            candidates.
    """
    topk_rows = np.asarray(topk_rows, dtype=np.intp)
    thr_rows = np.asarray(thr_rows, dtype=np.intp)
    floors = np.broadcast_to(
        np.asarray(thr_floors, dtype=np.float32) - np.float32(bound),
        (len(thr_rows),),
    )
    if bias is not None:
        floors = floors - bias[thr_rows]
    reducer = TopKReducer(len(topk_rows), max(1, kpad)) if len(topk_rows) else None
    if width is None:
        _, width = scan_shape(
            max(n_queries, 1), hi - lo,
            batch_left=max(n_queries, 1), buffer_budget_bytes=budget_bytes, workers=1,
        )
    empty = np.empty(0, dtype=np.int64)
    no_triples = (empty, empty, np.empty(0, dtype=np.float32))
    scan = ScanResult(no_triples, no_triples)
    hits: list[Triples] = []
    for start in range(lo, hi, max(width, 1)):
        stop = min(start + width, hi)
        scores = score_block(start, stop)
        beside = 0
        if reducer is not None:
            reducer.push(_take_rows(scores, topk_rows), start)
            beside += reducer.peak_bytes
        if len(thr_rows):
            rows, cols, found = select_above(_take_rows(scores, thr_rows), floors)
            if bias is not None:
                found = found + bias[thr_rows[rows]]
            found = rows, cols + start, found
            hits.append(found if refine is None else refine(*found))
            beside += maxima_bytes(len(thr_rows), stop - start)
        scan.blocks += 1
        scan.cells += n_queries * (stop - start)
        scan.peak_bytes = max(scan.peak_bytes, 4 * n_queries * (stop - start) + beside)
    if reducer is not None:
        scan.triples = reducer.finalize()
    if hits:
        rows, ids, found = (np.concatenate(column) for column in zip(*hits))
        # Canonical (row asc, id asc) order, whatever the block shape.
        order = np.lexsort((ids, rows))
        scan.hits = rows[order], ids[order].astype(np.int64, copy=False), found[order]
    if bias is not None:
        rows, ids, found = scan.triples
        scan.triples = rows, ids, found + bias[topk_rows[rows]]
    return scan


def fold_topk(parts: list[Triples], n_rows: int, k: int) -> Triples:
    """Each row's ``k`` best of ``parts`` by ``(score desc, id asc)`` —
    the reducer's total order, so the fold does not depend on how the
    candidates were cut into parts or in which order parts arrive."""
    reducer = TopKReducer(n_rows, max(1, k))
    for part in parts:
        reducer.merge(*part)
    return reducer.finalize()


def merge_topk(
    parts: list[Triples], n_rows: int, kpad: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-row candidates and floors from the triples of disjoint spans
    (engine workers, shard processes), each reduced independently.

    Returns:
        ``(ids, floors)`` — each row's candidate ids best first, and the
        approximate score no dropped cell of that row exceeds: its
        ``kpad``-th best, or ``-inf`` for a row that dropped nothing.
    """
    kpad = max(1, kpad)
    rows, ids, scores = parts[0] if len(parts) == 1 else fold_topk(parts, n_rows, kpad)
    bounds = np.searchsorted(rows, np.arange(n_rows + 1))
    full = np.diff(bounds) >= kpad
    floors = np.full(n_rows, -np.inf, dtype=np.float32)
    floors[full] = scores[bounds[1:][full] - 1]
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])], floors


def scan_join(
    stats: JoinStats,
    left: np.ndarray,
    n_right: int,
    condition: JoinCondition,
    scorer: Callable[[np.ndarray, int], tuple[Callable, np.ndarray | None]],
    *,
    bound: float = 0.0,
    keep: int | None = None,
    rerank: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    engine: ExecutionEngine | None = None,
) -> JoinResult:
    """The body of every scan join; the public joins are validated
    wrappers that pick a representation of the right side.

    Args:
        left: left rows as the scorer takes them; only sliced here.
        scorer: the representation — ``scorer(left_block, width) ->
            (score_block, bias)``, ``score_block(r0, r1)`` being asked for
            right blocks at most ``width`` rows wide.
        bound: its score error; a threshold prescreen drops its floor by
            it so ``rerank`` sees every true match.
        keep: candidates a top-k row keeps (``condition.k`` by default; a
            re-ranked representation keeps a multiple).
        rerank: ``(left_block, left_ids, right_ids) -> exact scores``.
            ``None``: the scanned scores are the emitted ones.  Otherwise
            candidates are re-scored (and counted as evaluations), then
            folded to ``condition.k`` or filtered at the threshold — a
            threshold join's block by block, as the scan finds them.
        engine: runs the left blocks — self-contained tasks over shared
            read-only operands, results in block order; ``None`` is one
            worker.  A join whose whole work does not repay one scheduler
            run stays on the caller's thread.
    """
    stats.n_left, stats.n_right = len(left), n_right
    if stats.n_left == 0 or n_right == 0:
        return JoinResult.empty(stats)
    engine = engine or serial_engine()
    topk = isinstance(condition, TopKCondition)
    if keep is None and topk:
        keep = condition.k
    dim = left.shape[1]
    # The budget covers the score block plus the per-row candidate state;
    # operand blocks (query rows, code blocks, PQ lookup tables) are not
    # charged.
    bl, br = scan_shape(
        stats.n_left, n_right, batch_left=batch_left, batch_right=batch_right,
        buffer_budget_bytes=(
            engine.buffer_budget_bytes if buffer_budget_bytes is None else buffer_budget_bytes
        ),
        reserve_bytes_per_row=TopKReducer.state_bytes_per_row(keep) if topk else 0,
        workers=engine.n_threads, morsel_rows=engine.morsel_rows, row_work=n_right * dim,
    )
    stats.peak_buffer_elements = bl * br
    stats.extra["batch_shape"] = (bl, br)

    floor = condition.min_similarity if topk else condition.threshold

    def join_block(l0: int, l1: int):
        lb = left[l0:l1]
        rows = np.arange(len(lb))
        score_block, bias = scorer(lb, br)
        reranked = 0

        def finalize(li, ri, scores):
            nonlocal reranked
            if rerank is not None:
                scores = rerank(lb, li, ri)
                reranked += len(scores)
                if topk:
                    li, ri, scores = fold_topk([(li, ri, scores)], len(lb), condition.k)
            if floor is not None:
                kept = scores >= floor
                li, ri, scores = li[kept], ri[kept], scores[kept]
            return li, ri, scores

        # A top-k row's candidates are final only after the last block; a
        # threshold block's are final at once, so they are re-ranked before
        # they pool and the pool stays inside the buffer budget (a scanned
        # threshold join's hits were filtered by the scan itself).
        wanted = (rows, keep, (), ()) if topk else ((), 0, rows, condition.threshold)
        scan = scan_candidates(
            score_block, 0, n_right, len(lb), *wanted, width=br, bound=bound,
            bias=bias, refine=None if topk or rerank is None else finalize,
        )
        li, ri, scores = finalize(*scan.triples) if topk else scan.hits
        scan.cells += reranked
        return li, ri, scores, scan

    spans = [(l0, min(l0 + bl, stats.n_left)) for l0 in range(0, stats.n_left, bl)]
    if (
        engine.n_threads == 1
        or len(spans) == 1
        or not worth_scheduling(stats.n_left * n_right * dim)
    ):
        parts = [join_block(*span) for span in spans]
    else:
        parts = engine.run([lambda span=span: join_block(*span) for span in spans])
    peak = 0
    for _, _, _, scan in parts:
        stats.similarity_evaluations += scan.cells
        stats.batch_invocations += scan.blocks
        peak = max(peak, scan.peak_bytes)
    stats.extra["peak_intermediate_bytes"] = peak
    return JoinResult(
        np.concatenate([part[0] + l0 for (l0, _), part in zip(spans, parts)]),
        np.concatenate([part[1] for part in parts]),
        np.concatenate([part[2] for part in parts]),
        stats,
    )
