"""The shared-scan core: one blocked prescreen under every served scan.

A served E-selection costs one pass over the relation (Section III-C,
``|R| * (A + M + C)``), and the pass is the same whether it answers one
query (:func:`~repro.core.eselect.eselect`), a coalesced group of them
(:mod:`repro.service.coalescer`) or one shard's row range
(:mod:`repro.shard.worker`): stream row blocks, score each against every
query, prune the score block to candidates *immediately* (Section IV-C) —
top-k rows through a :class:`~repro.vector.select.TopKReducer` whose
running floor gates every block after the first, threshold rows through
:func:`~repro.vector.select.select_above` at a fixed floor.  What differs
is only the *representation* scanned, and that is the ``score_block``
callable (fp32 rows, an fp16 cast, int8 codes, PQ ADC tables).

The core is a prescreen: it returns candidate *supersets*.  Callers
re-score candidates with the shape-stable exact kernel, so emitted ids
and scores never depend on block edges, grouping or sharding.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..vector.select import TopKReducer, block_shape, select_above

#: ``(rows, ids, scores)`` candidate triples sorted by
#: ``(row, score desc, id asc)`` — :meth:`TopKReducer.finalize`'s order.
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


def row_major_scores(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``(n_queries, len(block))`` scores of fp32 ``block`` rows, copy-free.

    The product runs row-major — ``block @ queries.T``, a plain GEMV for
    one query — because OpenBLAS streams a tall operand about twice as
    fast from the left as transposed on the right; the returned
    query-major array is a view of it.
    """
    if len(queries) == 1:
        return (block @ queries[0])[None, :]
    return (block @ queries.T).T


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
) -> tuple[Triples, list[np.ndarray], int]:
    """One blocked prescreen pass over relation rows ``[lo, hi)``.

    Args:
        score_block: ``(start, stop) -> (n_queries, stop - start)``
            approximate fp32 scores, any strides.
        topk_rows: sorted query rows that need their ``kpad`` best cells.
        thr_rows: sorted query rows that need every cell ``>=`` their
            entry of ``thr_floors`` (a row may appear in both lists).
        budget_bytes: optional cap on one fp32 score block; block edges
            otherwise keep the block cache-resident for the select pass
            (:func:`~repro.vector.select.block_shape`).

    Returns:
        ``(triples, thr_hits, blocks)`` — the top-k rows' candidates with
        ``row`` indexing ``topk_rows``, one ascending id array per
        threshold row, and the number of blocks scored.  A top-k row left
        with fewer than ``kpad`` triples dropped no cell.
    """
    topk_rows = np.asarray(topk_rows, dtype=np.intp)
    thr_rows = np.asarray(thr_rows, dtype=np.intp)
    thr_floors = np.asarray(thr_floors, dtype=np.float32)
    reducer = TopKReducer(len(topk_rows), max(1, kpad)) if len(topk_rows) else None
    width = hi - lo
    if budget_bytes is not None:
        width = min(width, max(budget_bytes // (4 * max(n_queries, 1)), 1))
    _, width = block_shape(n_queries, width)
    hit_rows: list[np.ndarray] = []
    hit_ids: list[np.ndarray] = []
    starts = range(lo, hi, width) if hi > lo else ()
    for start in starts:
        scores = score_block(start, min(start + width, hi))
        if reducer is not None:
            reducer.push(_take_rows(scores, topk_rows), start)
        if len(thr_rows):
            rows, cols, _ = select_above(_take_rows(scores, thr_rows), thr_floors)
            hit_rows.append(rows)
            hit_ids.append(cols + start)
    empty = np.empty(0, dtype=np.int64)
    triples = (
        reducer.finalize()
        if reducer is not None
        else (empty, empty, np.empty(0, dtype=np.float32))
    )
    thr_hits = [empty] * len(thr_rows)
    if hit_rows:
        rows, ids = np.concatenate(hit_rows), np.concatenate(hit_ids)
        order = np.lexsort((ids, rows))
        rows, ids = rows[order], ids[order].astype(np.int64, copy=False)
        bounds = np.searchsorted(rows, np.arange(len(thr_rows) + 1))
        thr_hits = [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return triples, thr_hits, len(starts)


def rows_above(normalized: np.ndarray, qvec: np.ndarray, floor: float) -> np.ndarray:
    """Ascending ids of the rows scoring ``>= floor`` against one query —
    a group of one fixed-floor pass over the fp32 relation."""
    _, (ids,), _ = scan_candidates(
        dense_score_block(normalized, qvec[None, :]),
        0, len(normalized), 1, (), 0, (0,), (floor,),
    )
    return ids


def merge_topk(
    parts: list[Triples], n_rows: int, kpad: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-row candidates and floors from the triples of disjoint spans.

    Spans (engine workers, shard processes) reduce independently; their
    triples fold under the reducer's total order ``(score desc, id asc)``,
    so the merged set does not depend on how the relation was cut or in
    which order parts arrive.

    Returns:
        ``(ids, floors)`` — each row's candidate ids best first, and the
        approximate score no dropped cell of that row exceeds: its
        ``kpad``-th best, or ``-inf`` for a row that dropped nothing.
    """
    kpad = max(1, kpad)
    if len(parts) == 1:
        rows, ids, scores = parts[0]
    else:
        reducer = TopKReducer(n_rows, kpad)
        for part in parts:
            reducer.merge(*part)
        rows, ids, scores = reducer.finalize()
    bounds = np.searchsorted(rows, np.arange(n_rows + 1))
    full = np.diff(bounds) >= kpad
    floors = np.full(n_rows, -np.inf, dtype=np.float32)
    floors[full] = scores[bounds[1:][full] - 1]
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])], floors
