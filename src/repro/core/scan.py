"""The blocked scan: the one loop under every scan join and served scan.

The paper's tensor formulation (Section IV-C, Figures 6-7) is one loop:
score a block of the relation against every query row, prune the score
block to qualifying cells *immediately*, keep a bounded buffer.  That loop
is :func:`scan_candidates` and nothing else in the package walks right
blocks.  Callers differ only in the *representation* scanned — the
``score_block`` closure they hand in (fp32 rows, an fp16 upcast, or int8
codes through the quantizer's ``scorer``), with its
score-error ``bound`` and per-query ``bias`` — and in their exact
finalizer: served scans (:func:`~repro.core.eselect.select_group`, over
its own pass or the shard workers') re-score candidates with the
shape-stable exact kernel, the fp32 and fp16 joins emit the GEMM's own
scores, the quantized join re-ranks in fp32.

A re-scored top-k is exact by one rule, :func:`prove_topk`: a row whose
dropped cells provably score under its k-th exact candidate keeps its
candidates, and the rest take one fixed-floor pass.

:func:`scan_join` is the one operator body under every scan join: ask
:func:`~repro.vector.select.scan_shape` for the block, cut the left side,
scan each left block with the representation's scorer, finalize, run the
blocks inline or on the engine, add up the parts.  What it scans is one
:class:`Representation` of the right side — fp32 unit rows
(:func:`~repro.core.tensor_join.unit_rows`), fp16 rows
(:func:`~repro.core.precision.fp16_rows`) or int8 codes
(:meth:`~repro.core.quantized_join.QuantizedRelation.representation`) —
so the paper's precision ablation (Section V-A-2) changes data, not code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..engine import ExecutionEngine, serial_engine
from ..errors import BufferBudgetError
from ..vector.kernels import row_major_scores
from ..vector.select import (
    TRIPLE_BYTES,
    TopKReducer,
    best_per_row,
    blocks_per_cap_task,
    fold_topk,
    maxima_bytes,
    scan_shape,
    select_above,
    worth_scheduling,
)
from .conditions import JoinCondition, TopKCondition
from .result import JoinResult, JoinStats

if TYPE_CHECKING:
    from .caps import CapPartition

#: ``(rows, ids, scores)`` candidate triples sorted by
#: ``(row, score desc, id asc)`` — :meth:`TopKReducer.finalize`'s order.
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Margin subtracted from prescreen floors so float rounding in the
#: approximate BLAS pass can never exclude a row the exact kernel would
#: emit.  Dot products of unit vectors deviate from the exact value by
#: O(d * eps_fp32) ~ 1e-4 at d = 2048; 1e-3 is a safe bound for any
#: realistic embedding dimensionality.
PRESCREEN_MARGIN = 1e-3


def fp32_dot_slack(dim: int) -> float:
    """How far the fp32 cap bound test (:func:`repro.core.caps.keep`) may sit
    from its float64 value: ``q . c`` over ``dim`` terms plus a rank-2 term
    whose sides are unit pairs.  An ``n``-term dot product errs by at most
    ``n u / (1 - n u)`` times ``sum |x_i y_i|`` <= 1 here (Higham Thm. 3.1,
    any summation order; ``u = 2^-24``); rounding the float64 centre, ``m``
    and ``f`` to fp32 adds ``3u`` and the final add ``2u``: under ``(dim +
    8) u``, and ``(dim + 16) u`` covers a query norm a few ulp over 1."""
    return (dim + 16) * 2.0**-24


#: Extra prescreen candidates a top-k row keeps beyond ``k``, so that
#: :func:`prove_topk` proves almost every row without a second pass.
TOPK_PRESCREEN_PAD = 32


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
    #: The order a cap task probed in (``"rows"`` / ``"caps"``,
    #: :func:`repro.core.caps.cap_join`); ``""`` for a dense pass.
    probe: str = ""
    #: Per row, a floor no dropped cell reaches: a row-major cap probe's
    #: (:func:`repro.core.caps.probe_by_rows`); ``None`` for any other pass.
    floors: np.ndarray | None = None


def _unchanged(left: np.ndarray) -> np.ndarray:
    return left


@dataclass(frozen=True)
class Representation:
    """The right side of a scan join as the scan streams it.

    ``scorer(left_block, width) -> (score_block, bias)``: ``score_block(r0,
    r1)`` scores right rows ``[r0, r1)`` — asked for blocks at most
    ``width`` rows wide — against the left block, leaving out the per-left-
    row constant ``bias`` (``None``: none).
    """

    #: What ``scorer`` slices; ``rows.shape[0]`` right rows.
    rows: object
    scorer: Callable[[np.ndarray, int], tuple[Callable, np.ndarray | None]]
    #: Bytes one right row costs the scan.
    row_bytes: int
    #: The scanned scores' error: a threshold prescreen drops its floor by
    #: it so ``rerank`` sees every true match, and a top-k row's proof adds
    #: it to the row's floor.
    bound: float = 0.0
    #: ``(left_block, left_ids, right_ids) -> exact scores``.  ``None``: the
    #: scanned scores are the emitted ones.
    rerank: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    #: The left side as ``scorer`` takes it, from the caller's left rows.
    prepare: Callable[[np.ndarray], np.ndarray] = _unchanged

    def __len__(self) -> int:
        return self.rows.shape[0]


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
    if n_rows == 1:
        return [values]
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
            candidates (which ``peak_bytes`` and a budget count until then).
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
            survivor_bytes=0 if refine is None else TRIPLE_BYTES,
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
            beside += 0 if refine is None else TRIPLE_BYTES * len(rows)
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
    bounds, floors = _last_of_full_rows(rows, scores, n_rows, kpad)
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])], floors


def _last_of_full_rows(
    rows: np.ndarray, scores: np.ndarray, n_rows: int, kpad: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds into triples sorted by row, and each row's last score
    if it holds ``kpad`` triples (``-inf`` otherwise)."""
    bounds = np.searchsorted(rows, np.arange(n_rows + 1))
    full = np.diff(bounds) >= kpad
    last = np.full(n_rows, -np.inf, dtype=np.float32)
    last[full] = scores[bounds[1:][full] - 1]
    return bounds, last


def prove_topk(
    rows: np.ndarray,
    ids: np.ndarray,
    floors: np.ndarray,
    k: int,
    n: int,
    rescore: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rescan: Callable[[np.ndarray], tuple[Callable, np.ndarray | None]],
    *,
    bound: float = 0.0,
    width: int | None = None,
    budget_bytes: int | None = None,
) -> tuple[Triples, np.ndarray, ScanResult | None]:
    """Each query row's exact top-k from its approximate candidates: the
    one proof every re-scored top-k takes.

    Query row ``r < len(floors)`` holds the candidate ids ``ids[rows ==
    r]`` of relation rows ``[0, n)``, and ``floors[r]`` is the approximate
    score no cell it dropped exceeds (:func:`merge_topk`'s; ``-inf``: it
    dropped none).  ``rescore(rows, ids)`` gives exact scores.  A dropped
    cell scores at most ``floor + bound`` exactly, so a row is proved when
    ``floor + bound + PRESCREEN_MARGIN`` is at or below its k-th exact
    candidate score: no dropped cell can tie or beat its top-k.  The rows
    that fail take one batched pass: ``rescan(failed)`` gives their
    ``(score_block, bias)`` over ``[0, n)``, :func:`scan_candidates` keeps
    every cell whose approximate score may reach a margin under the k-th
    exact score, re-scored block by block (``refine=``), and the rows are
    folded again (in ``budget_bytes``' blocks, if given, else ``width``).

    Returns:
        ``(triples, failed, rescanned)`` — every row's exact top-k by
        ``(row, score desc, id asc)``, the rows that took the pass, and
        what the pass scanned (``None``: no row did).
    """
    n_rows = len(floors)
    held = np.bincount(rows, minlength=n_rows)
    exact = rescore(rows, ids).astype(np.float32, copy=False)
    keep, at_kth = best_per_row(rows, ids, exact, k, n_rows)
    kth = np.full(n_rows, -np.inf, dtype=np.float32)  # -inf below k candidates
    kth[rows[at_kth]] = exact[at_kth]
    rows, ids, exact = rows[keep], ids[keep], exact[keep]
    failed = ((floors + bound + PRESCREEN_MARGIN > kth) & (held < n)).nonzero()[0]
    if not len(failed):
        return (rows, ids, exact), failed, None
    bars = kth[failed] - PRESCREEN_MARGIN

    def refine(r: np.ndarray, i: np.ndarray, _) -> Triples:
        scores = rescore(failed[r], i)
        kept = scores >= bars[r]
        return r[kept], i[kept], scores[kept]

    score_block, bias = rescan(failed)
    rescanned = scan_candidates(
        score_block, 0, n, len(failed), (), 0, np.arange(len(failed)), bars,
        width=width if budget_bytes is None else None, budget_bytes=budget_bytes,
        bound=bound, bias=bias, refine=refine,
    )
    r, i, scores = rescanned.hits
    proved = np.ones(n_rows, dtype=bool)
    proved[failed] = False
    kept = proved[rows]
    triples = fold_topk(
        [(rows[kept], ids[kept], exact[kept]), (failed[r], i, scores)], n_rows, k
    )
    return triples, failed, rescanned


def scan_join(
    stats: JoinStats,
    left: np.ndarray,
    representation: Representation,
    condition: JoinCondition,
    *,
    engine: ExecutionEngine | None = None,
    caps: CapPartition | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
) -> JoinResult:
    """The body of every scan join; the public joins are validated
    wrappers that pick a representation of the right side.

    Args:
        left: left rows, as ``representation.prepare`` takes them.
        representation: the right side.  With a ``rerank``, candidates are
            re-scored (and counted as evaluations): a top-k row keeps ``k +``
            :data:`TOPK_PRESCREEN_PAD` (down to ``k`` under a budget too
            small for their state) and is proved or rescanned by
            :func:`prove_topk` (the rows that were go to
            ``stats.extra["rescanned_rows"]``); a threshold join's are
            filtered block by block, as the scan finds them.  The re-scored
            cells go to ``stats.extra["rerank_candidates"]``.
        engine: runs the left blocks — self-contained tasks over shared
            read-only operands, results in block order; ``None`` is one
            worker.  A join whose whole work does not repay one engine
            run stays on the caller's thread.  ``stats.extra["morsels"]``
            counts the left blocks.
        caps: the right side's :class:`~repro.core.caps.CapPartition`: a
            left task joins on its caps (its ``task(condition)``) unless
            they decline; not under explicit edges (``extra["cap_tasks"]``).
            Its scores are exact: rows on the caps are neither scanned nor
            re-ranked.
    """
    n_right, scorer = len(representation), representation.scorer
    bound, rerank = representation.bound, representation.rerank
    stats.n_left, stats.n_right = len(left), n_right
    if stats.n_left == 0 or n_right == 0:
        stats.extra["morsels"] = 0
        return JoinResult.empty(stats)
    left = representation.prepare(left)
    engine = engine or serial_engine()
    topk = isinstance(condition, TopKCondition)
    dim = left.shape[1]
    keeps = [condition.k] if topk else [None]
    if topk and rerank is not None:
        # A re-ranked row keeps k + PAD candidates for its proof, fewer when
        # the budget cannot hold their state: a shorter list only sends
        # more rows to the fixed-floor pass.
        most = max(condition.k, min(condition.k + TOPK_PRESCREEN_PAD, n_right))
        keeps = range(most, condition.k - 1, -1)
    budget = engine.buffer_budget_bytes if buffer_budget_bytes is None else buffer_budget_bytes
    for keep in keeps:
        # The budget covers the score block plus the per-row candidate
        # state (a threshold block's, its candidates); operand blocks
        # (query rows, code blocks) are not charged.
        try:
            bl, br = scan_shape(
                stats.n_left, n_right, batch_left=batch_left, batch_right=batch_right,
                buffer_budget_bytes=budget,
                reserve_bytes_per_row=TopKReducer.state_bytes_per_row(keep) if topk else 0,
                survivor_bytes=TRIPLE_BYTES if rerank is not None and not topk else 0,
                workers=engine.n_threads, morsel_rows=engine.morsel_rows,
                row_work=n_right * dim,
            )
            break
        except BufferBudgetError:
            if keep == keeps[-1]:
                raise
    stats.peak_buffer_elements = bl * br
    stats.extra["batch_shape"] = (bl, br)

    floor = condition.min_similarity if topk else condition.threshold
    # Explicit edges scan dense.
    caps = None if caps is None or batch_left or batch_right else caps.task(condition)

    def at_floor(li, ri, scores):
        if floor is None:
            return li, ri, scores
        kept = scores >= floor
        return li[kept], ri[kept], scores[kept]

    def cap_block(l0: int, l1: int):
        scan = caps[0](left[l0:l1], 4 * (l1 - l0) * br)  # the dense blocks' bytes
        if scan is None:
            return None
        return (*(at_floor(*scan.triples) if topk else scan.hits), scan, 0, 1, 0)

    def join_block(l0: int, l1: int):
        lb = left[l0:l1]
        rows = np.arange(len(lb))
        score_block, bias = scorer(lb, br)
        reranked = 0

        def exact(li, ri):
            nonlocal reranked
            reranked += len(li)
            return rerank(lb, li, ri)

        # A top-k row's candidates are final only after the last block; a
        # threshold block's are final at once, so they are re-ranked before
        # they pool and the pool stays inside the buffer budget (a scanned
        # threshold join's hits were filtered by the scan itself).
        wanted = (rows, keep, (), ()) if topk else ((), 0, rows, condition.threshold)
        scan = scan_candidates(
            score_block, 0, n_right, len(lb), *wanted, width=br, bound=bound,
            bias=bias,
            refine=None if topk or rerank is None else lambda li, ri, _: at_floor(
                li, ri, exact(li, ri)
            ),
        )
        found, failed = scan.hits, ()
        if topk:
            found = scan.triples
            if rerank is not None:
                li, ri, scores = found
                _, floors = _last_of_full_rows(li, scores, len(lb), keep)
                found, failed, rescanned = prove_topk(
                    li, ri, floors, condition.k, n_right, exact,
                    lambda unproved: scorer(lb[unproved], br), bound=bound, width=br,
                    budget_bytes=None if budget is None else 4 * len(lb) * br,
                )
                if rescanned is not None:
                    scan.blocks += rescanned.blocks
                    scan.cells += rescanned.cells
                    scan.peak_bytes = max(scan.peak_bytes, rescanned.peak_bytes)
            found = at_floor(*found)
        scan.cells += reranked
        return (*found, scan, len(failed), 0, reranked)

    def run(block, spans):
        if (
            engine.n_threads == 1
            or len(spans) == 1
            or not worth_scheduling(stats.n_left * n_right * dim)
        ):
            return [block(*span) for span in spans]
        return engine.run([lambda span=span: block(*span) for span in spans])

    spans = [(l0, min(l0 + bl, stats.n_left)) for l0 in range(0, stats.n_left, bl)]
    stats.extra["morsels"] = len(spans)
    parts, dense = [], spans
    if caps is not None:
        # A cap task holds state as wide as the caps, not the right side: it
        # takes as many dense blocks as that fits (one under a budget), and
        # one that declines runs them dense.
        per = 1 if budget is not None else blocks_per_cap_task(bl, caps[1])
        tasks = [spans[i : i + per] for i in range(0, len(spans), per)]
        joined = run(cap_block, [(task[0][0], task[-1][1]) for task in tasks])
        parts = [(task[0][0], part) for task, part in zip(tasks, joined) if part is not None]
        dense = [span for task, part in zip(tasks, joined) if part is None for span in task]
    parts += zip((l0 for l0, _ in dense), run(join_block, dense))
    starts, parts = zip(*sorted(parts, key=lambda part: part[0]))
    peak = 0
    for _, _, _, scan, _, _, _ in parts:
        stats.similarity_evaluations += scan.cells
        stats.batch_invocations += scan.blocks
        peak = max(peak, scan.peak_bytes)
    stats.extra["peak_intermediate_bytes"] = peak
    if rerank is not None:
        stats.extra["rescanned_rows"] = sum(part[4] for part in parts)
        stats.extra["rerank_candidates"] = sum(part[6] for part in parts)
    if caps is not None:
        stats.extra["cap_tasks"] = sum(part[5] for part in parts)
        stats.extra["probe"] = "+".join(sorted({part[3].probe for part in parts} - {""})) or "dense"
    return JoinResult(
        np.concatenate([part[0] + l0 for l0, part in zip(starts, parts)]),
        np.concatenate([part[1] for part in parts]),
        np.concatenate([part[2] for part in parts]),
        stats,
    )
