"""Tensor-join formulation (Sections IV-C, V-B; Figures 6, 7, 11-14).

The join becomes a block-matrix dot product: normalize both relations once
(cosine == dot for unit vectors), partition **along tuple boundaries, not
dimensions**, and compute ``D = R @ S.T`` block-by-block with BLAS GEMM.
The loop itself is :func:`repro.core.scan.scan_candidates`; this module
hands it the fp32 representation — a closure that GEMMs each right block
into one reusable score buffer — so every block is pruned to qualifying
offset pairs before the next overwrites it and peak memory is ``batch_left
* batch_right`` floats regardless of input size (the Figure 7 buffer
budget).  Top-k conditions fold into the scan's bounded reducer, so the
budget also covers the candidate state, end to end.  The finalizer is the
identity: the GEMM's own scores are the emitted scores.

Left blocks are independent tasks (:func:`repro.core.scan.scan_join`);
handing the join an :class:`~repro.engine.ExecutionEngine` schedules them
on its work-stealing workers, with batch shapes resolved by the engine's
(possibly calibrated) :class:`~repro.engine.BatchPolicy`.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import get_config
from ..embedding.base import EmbeddingModel
from ..engine import BatchPolicy, ExecutionEngine
from ..errors import DimensionalityError
from ..vector.norms import normalize_rows
from ..vector.select import CHUNK, block_shape
from .conditions import JoinCondition, TopKCondition, validate_condition
from .nlj import _as_matrix
from .result import JoinResult, JoinStats
from .scan import scan_candidates, scan_join, state_bytes_per_row


def resolve_batch_shape(
    n_left: int,
    n_right: int,
    *,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
) -> tuple[int, int]:
    """Derive mini-batch edges from explicit sizes or a buffer budget.

    With only a budget, the edges are chosen square-ish:
    ``batch_l * batch_r * 4 bytes <= budget``.  Thin wrapper over
    :meth:`repro.engine.BatchPolicy.resolve` (the single budget-to-shape
    implementation), kept as the stable core-layer entry point.
    """
    return BatchPolicy().resolve(
        n_left,
        n_right,
        1,  # dim only matters to calibrated policies
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
    )


def resolve_block_shape(
    n_left: int,
    n_right: int,
    dim: int,
    *,
    engine: ExecutionEngine | None,
    batch_left: int | None,
    batch_right: int | None,
    buffer_budget_bytes: int | None,
    reserve_bytes_per_left_row: int,
) -> tuple[int, int]:
    """Block edges of a blocked scan join, as the operators run them.

    On top of :meth:`BatchPolicy.resolve` (explicit edges win, a budget
    caps derived ones, ``reserve_bytes_per_left_row`` is carved out for
    the reducer): the budget is split across the engine's concurrently
    resident blocks, an unsplit left side is cut to the engine's morsels
    (none smaller than the engine's task-work floor),
    and derived edges shrink until the score block stays cache-resident
    for the select pass (:func:`repro.vector.select.block_shape`).
    """
    policy = (
        BatchPolicy(buffer_budget_bytes=get_config().default_buffer_budget_bytes)
        if engine is None
        else engine.policy
    )
    full_budget = (
        policy.buffer_budget_bytes
        if buffer_budget_bytes is None
        else buffer_budget_bytes
    )
    parallel = engine is not None and engine.n_threads > 1

    def _resolve(share: int) -> tuple[int, int]:
        eff = None if full_budget is None else max(full_budget // share, 1)
        if eff is not None:
            # One chunk maximum rides along with every CHUNK score cells.
            eff = max(eff - eff // (CHUNK + 1), 1)
        bl, br = policy.resolve(
            n_left,
            n_right,
            dim,
            batch_left=batch_left,
            batch_right=batch_right,
            buffer_budget_bytes=eff,
            reserve_bytes_per_left_row=reserve_bytes_per_left_row,
        )
        if engine is not None and batch_left is None and bl >= n_left:
            # Neither the caller nor the (possibly generous) budget split
            # the left side: cap the left edge at the engine's morsel size
            # so the join actually parallelizes instead of degenerating to
            # one serial full-size block (a one-worker engine keeps its
            # configured morsels, so it runs the blocks its siblings run).
            morsels = engine.morsels_for(n_left, row_work=n_right * dim)
            if len(morsels) > 1:
                bl = max(len(m) for m in morsels)
        return block_shape(
            bl,
            br,
            fixed_rows=batch_left is not None,
            fixed_width=batch_right is not None,
        )

    if not parallel:
        return _resolve(1)
    # Split the budget by how many blocks are concurrently resident.
    # Shrinking the budget shrinks blocks and so *raises* the block
    # count, so iterate share = min(workers, blocks) to its fixed
    # point (monotone, bounded by n_threads); at the fixed point
    # holders * per-block <= budget.  A single-block join keeps the
    # whole budget instead of paying for concurrency it never gets.
    share = 1
    for _ in range(8):
        bl, br = _resolve(share)
        new_share = min(engine.n_threads, -(-n_left // bl))
        if new_share <= share:
            return bl, br
        share = new_share
    return _resolve(engine.n_threads)  # conservative, always safe


def tensor_join(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
) -> JoinResult:
    """Scan-based exact E-join via blocked GEMM.

    Args:
        left, right: ``(n, d)`` embedding matrices, or raw items with
            ``model`` (prefetch-embedded once).
        condition: threshold or top-k join condition.
        batch_left, batch_right: explicit mini-batch edges in tuples.
        buffer_budget_bytes: alternatively, a memory budget for the dense
            intermediate (Figure 7's ``Buffer``); batch edges are derived.
            Under a top-k condition the budget also covers the streaming
            merge state, and with a multi-threaded engine it is split
            evenly across workers — peak intermediate memory is bounded
            end to end, counting all concurrent blocks.
        assume_normalized: skip normalization when inputs are already unit
            rows (ablation: pre-normalized storage).
        engine: execution engine scheduling left blocks across its workers
            and resolving batch shapes via its calibrated policy.  ``None``
            runs blocks inline with policy defaults from the global config.

    Returns:
        Sparse offset-pair :class:`JoinResult`; ``stats`` records peak
        buffer cells and GEMM invocations for the Figure 13 trade-off.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor")
    start = time.perf_counter()

    left_m = _as_matrix(left, model, stats)
    right_m = _as_matrix(right, model, stats)
    if left_m.shape[1] != right_m.shape[1]:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {right_m.shape[1]}"
        )
    stats.n_left, stats.n_right = len(left_m), len(right_m)
    if stats.n_left == 0 or stats.n_right == 0:
        stats.seconds = time.perf_counter() - start
        return JoinResult.empty(stats)

    left_n = left_m if assume_normalized else normalize_rows(left_m)
    right_n = right_m if assume_normalized else normalize_rows(right_m)

    topk = isinstance(condition, TopKCondition)
    bl, br = resolve_block_shape(
        stats.n_left,
        stats.n_right,
        left_n.shape[1],
        engine=engine,
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        reserve_bytes_per_left_row=state_bytes_per_row(condition.k) if topk else 0,
    )
    stats.peak_buffer_elements = bl * br
    stats.extra["batch_shape"] = (bl, br)

    def join_block(l0: int, l1: int):
        lb = left_n[l0:l1]
        rows = np.arange(len(lb))
        # Every right block's GEMM lands in this task's one buffer
        # (Figure 6 step 1); the scan is done with a block before it asks
        # for the next.
        buffer = np.empty(len(lb) * br, dtype=np.float32)

        def score_block(r0: int, r1: int) -> np.ndarray:
            out = buffer[: len(lb) * (r1 - r0)].reshape(len(lb), r1 - r0)
            return np.matmul(lb, right_n[r0:r1].T, out=out)

        wanted = (
            (rows, condition.k, (), ()) if topk else ((), 0, rows, condition.threshold)
        )
        scan = scan_candidates(
            score_block, 0, stats.n_right, len(lb), *wanted, width=br
        )
        li, ri, sc = scan.triples if topk else scan.hits
        if topk and condition.min_similarity is not None:
            keep = sc >= condition.min_similarity
            li, ri, sc = li[keep], ri[keep], sc[keep]
        return li, ri, sc, scan

    result = scan_join(stats, bl, left_n.shape[1], engine, join_block)
    stats.seconds = time.perf_counter() - start
    return result


def tensor_join_non_batched(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
) -> JoinResult:
    """Figure 12's "Tensor-Non-Batched" strategy.

    One input stays fully batched; the other is streamed **one vector at a
    time** through the BLAS kernel.  Numerically identical to
    :func:`tensor_join`, but each matrix-vector call re-reads the batched
    operand — the redundant data movement the fully-batched formulation
    eliminates.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor-non-batched")
    start = time.perf_counter()
    left_m = _as_matrix(left, model, stats)
    right_m = _as_matrix(right, model, stats)
    if left_m.shape[1] != right_m.shape[1]:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {right_m.shape[1]}"
        )
    stats.n_left, stats.n_right = len(left_m), len(right_m)
    left_n = normalize_rows(left_m)
    right_n = normalize_rows(right_m)

    from .nlj import _emit_row  # row-wise condition evaluation

    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    for i in range(left_n.shape[0]):
        row = right_n @ left_n[i]  # matrix-vector: right batched, left streamed
        stats.batch_invocations += 1
        stats.similarity_evaluations += row.shape[0]
        idx, picked = _emit_row(row, condition)
        if len(idx) == 0:
            continue
        out_l.append(np.full(len(idx), i, dtype=np.int64))
        out_r.append(idx.astype(np.int64))
        out_s.append(picked.astype(np.float32))
    stats.seconds = time.perf_counter() - start
    if not out_l:
        return JoinResult.empty(stats)
    return JoinResult(
        np.concatenate(out_l),
        np.concatenate(out_r),
        np.concatenate(out_s),
        stats,
    )
