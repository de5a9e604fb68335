"""Tensor-join formulation (Sections IV-C, V-B; Figures 6, 7, 11-14).

The join becomes a block-matrix dot product: normalize both relations once
(cosine == dot for unit vectors), partition **along tuple boundaries, not
dimensions**, and compute ``D = R @ S.T`` block-by-block with BLAS GEMM.
Each block lands in one reusable score buffer and is pruned to qualifying
offset pairs by the shared batch-major select (:mod:`repro.vector.select`)
before the next block overwrites it, so peak memory is ``batch_left *
batch_right`` floats regardless of input size (the Figure 7 buffer budget).
Top-k conditions fold every block into a bounded
:class:`~repro.vector.select.TopKReducer`, so the budget also covers the
candidate state, end to end.

Left blocks are independent tasks; handing the join an
:class:`~repro.engine.ExecutionEngine` schedules them on its work-stealing
workers, with batch shapes resolved by the engine's (possibly calibrated)
:class:`~repro.engine.BatchPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import get_config
from ..embedding.base import EmbeddingModel
from ..engine import BatchPolicy, ExecutionEngine
from ..errors import DimensionalityError
from ..vector.norms import normalize_rows
from ..vector.select import (
    CHUNK,
    TopKReducer,
    block_shape,
    maxima_bytes,
    select_above,
)
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .nlj import _as_matrix
from .result import JoinResult, JoinStats


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
    policy: BatchPolicy | None,
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
    if engine is not None:
        policy = engine.policy
    elif policy is None:
        policy = BatchPolicy(
            buffer_budget_bytes=get_config().default_buffer_budget_bytes
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
        if parallel and batch_left is None and bl >= n_left:
            # Neither the caller nor the (possibly generous) budget split
            # the left side: cap the left edge at the engine's morsel size
            # so the join actually parallelizes instead of degenerating to
            # one serial full-size block.
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


@dataclass
class _BlockPart:
    """One left block's matches plus the counters it accumulated."""

    left_ids: np.ndarray
    right_ids: np.ndarray
    scores: np.ndarray
    similarity_evaluations: int = 0
    batch_invocations: int = 0
    peak_intermediate_bytes: int = 0


def _empty_part() -> _BlockPart:
    return _BlockPart(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float32),
    )


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
    policy: BatchPolicy | None = None,
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
        policy: batch-shape policy for engine-less calls (e.g. per-morsel
            joins inside :func:`~repro.core.parallel.parallel_join`, which
            forwards its engine's calibrated policy); ignored when an
            ``engine`` is supplied.

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

    reserve = (
        TopKReducer.state_bytes_per_row(condition.k)
        if isinstance(condition, TopKCondition)
        else 0
    )
    bl, br = resolve_block_shape(
        stats.n_left,
        stats.n_right,
        left_n.shape[1],
        engine=engine,
        policy=policy,
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        reserve_bytes_per_left_row=reserve,
    )
    stats.peak_buffer_elements = bl * br
    stats.extra["batch_shape"] = (bl, br)

    parts = _run_left_blocks(left_n, right_n, condition, bl, br, engine)
    for part in parts:
        stats.similarity_evaluations += part.similarity_evaluations
        stats.batch_invocations += part.batch_invocations
        stats.extra["peak_intermediate_bytes"] = max(
            stats.extra.get("peak_intermediate_bytes", 0),
            part.peak_intermediate_bytes,
        )
    populated = [p for p in parts if len(p.left_ids)]
    if not populated:
        result = JoinResult.empty(stats)
    else:
        result = JoinResult(
            np.concatenate([p.left_ids for p in populated]),
            np.concatenate([p.right_ids for p in populated]),
            np.concatenate([p.scores for p in populated]),
            stats,
        )
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(result)
    return result


def _run_left_blocks(
    left_n: np.ndarray,
    right_n: np.ndarray,
    condition: JoinCondition,
    bl: int,
    br: int,
    engine: ExecutionEngine | None,
) -> list[_BlockPart]:
    """Join every left block against the right relation.

    Each block is a self-contained task over shared read-only operands, so
    a multi-threaded engine schedules them on its work-stealing workers;
    results come back in block order, keeping output identical to the
    inline loop.
    """
    n = left_n.shape[0]
    bounds = [(l0, min(l0 + bl, n)) for l0 in range(0, n, bl)]

    def block_task(span: tuple[int, int]) -> _BlockPart:
        l0, l1 = span
        if isinstance(condition, ThresholdCondition):
            return _threshold_block(
                left_n[l0:l1], l0, right_n, condition, br
            )
        assert isinstance(condition, TopKCondition)
        return _topk_block(left_n[l0:l1], l0, right_n, condition, br)

    if engine is None or engine.n_threads == 1 or len(bounds) == 1:
        return [block_task(span) for span in bounds]
    return engine.run([lambda span=span: block_task(span) for span in bounds])


def _score_blocks(lb: np.ndarray, right_n: np.ndarray, br: int, part: _BlockPart):
    """GEMM ``lb`` against each right block into one reusable buffer.

    Yields ``(r0, scores)`` (Figure 6 step 1); the caller must be done
    with ``scores`` before asking for the next block.
    """
    n_lb = lb.shape[0]
    buffer = np.empty(n_lb * br, dtype=np.float32)
    for r0 in range(0, right_n.shape[0], br):
        rb = right_n[r0 : r0 + br]
        out = buffer[: n_lb * len(rb)].reshape(n_lb, len(rb))
        part.batch_invocations += 1
        part.similarity_evaluations += out.size
        yield r0, np.matmul(lb, rb.T, out=out)


def _threshold_block(
    lb: np.ndarray,
    l0: int,
    right_n: np.ndarray,
    condition: ThresholdCondition,
    br: int,
) -> _BlockPart:
    part = _empty_part()
    out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for r0, scores in _score_blocks(lb, right_n, br, part):
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes,
            scores.nbytes + maxima_bytes(*scores.shape),
        )
        li, ri, sc = select_above(scores, condition.threshold)
        # Map block-local offsets back via batch offsets (Fig. 6 step 2).
        out.append((li + l0, ri + r0, sc))
    li, ri, sc = (np.concatenate(column) for column in zip(*out))
    # Canonical (left asc, right asc) order, whatever the block shape.
    order = np.lexsort((ri, li))
    part.left_ids, part.right_ids, part.scores = li[order], ri[order], sc[order]
    return part


def _topk_block(
    lb: np.ndarray,
    l0: int,
    right_n: np.ndarray,
    condition: TopKCondition,
    br: int,
) -> _BlockPart:
    part = _empty_part()
    reducer = TopKReducer(lb.shape[0], condition.k)
    for r0, scores in _score_blocks(lb, right_n, br, part):
        reducer.push(scores, r0)
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes, scores.nbytes + reducer.peak_bytes
        )
    li, ri, sc = reducer.finalize()
    if condition.min_similarity is not None:
        keep = sc >= condition.min_similarity
        li, ri, sc = li[keep], ri[keep], sc[keep]
    part.left_ids, part.right_ids, part.scores = li + l0, ri, sc
    return part


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
