"""Nested-loop E-join formulations (Sections IV-A, VI-B, VI-C).

Two operators live here:

* :func:`naive_nlj` — the *unoptimized* extension of relational NLJ: the
  embedding model is invoked **per processed pair**, so model cost is
  quadratic: ``|R|*|S|*(A+M+C)`` (E-NL Join Cost).  This exists to validate
  the cost model; never use it for real work.
* :func:`prefetch_nlj` — the logically-optimized formulation: each tuple is
  embedded exactly once up front ("prefetching"), giving
  ``|R|*|S|*(A+C) + (|R|+|S|)*M`` (E-NLJ Prefetch Optimization).  Its inner
  similarity kernel is switchable between the pure-Python scalar loop
  ("NO-SIMD") and the NumPy vectorized kernel ("SIMD") to reproduce the
  physical-optimization axis of Figure 8.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..errors import DimensionalityError, JoinError
from ..vector.kernels import Kernel, cosine_scalar
from ..vector.norms import normalize_rows
from ..vector.topk import top_k_indices
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .result import JoinResult, JoinStats


def _as_matrix(side, model: EmbeddingModel | None, stats: JoinStats) -> np.ndarray:
    """Resolve a join input: either an (n, d) array or raw items + model."""
    if isinstance(side, np.ndarray):
        if side.ndim != 2:
            raise DimensionalityError(
                f"join input must be 2-D (n, dim), got ndim={side.ndim}"
            )
        return np.asarray(side, dtype=np.float32)
    if model is None:
        raise JoinError(
            "raw (non-array) join inputs require an embedding model"
        )
    items = list(side)
    vectors = model.embed_batch(items)
    stats.model_calls += len(items)
    return vectors


def _as_matrices(
    left, right, model: EmbeddingModel | None, stats: JoinStats
) -> tuple[np.ndarray, np.ndarray]:
    """Both join inputs as matrices of one dimensionality."""
    left_m = _as_matrix(left, model, stats)
    right_m = _as_matrix(right, model, stats)
    if left_m.shape[1] != right_m.shape[1]:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {right_m.shape[1]}"
        )
    return left_m, right_m


def _emit_threshold_row(
    scores: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    idx = np.nonzero(scores >= threshold)[0]
    return idx, scores[idx]


def _emit_topk_row(
    scores: np.ndarray, condition: TopKCondition
) -> tuple[np.ndarray, np.ndarray]:
    idx = top_k_indices(scores, condition.k)
    picked = scores[idx]
    if condition.min_similarity is not None:
        keep = picked >= condition.min_similarity
        idx, picked = idx[keep], picked[keep]
    return idx, picked


def _emit_row(
    scores: np.ndarray, condition: JoinCondition
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(condition, ThresholdCondition):
        return _emit_threshold_row(scores, condition.threshold)
    assert isinstance(condition, TopKCondition)
    return _emit_topk_row(scores, condition)


def naive_nlj(
    left_items: list,
    right_items: list,
    model: EmbeddingModel,
    condition: JoinCondition,
    *,
    kernel: Kernel = Kernel.VECTORIZED,
) -> JoinResult:
    """Naive E-NLJ: the model runs inside the pairwise loop.

    Every pair (r, s) triggers two model invocations — this is the
    "imperative operator specification by a non-expert user" baseline whose
    quadratic model cost Figure 8 quantifies.
    """
    validate_condition(condition)
    if kernel is Kernel.GEMM:
        raise JoinError("naive NLJ is pairwise by definition; GEMM kernel "
                        "implies the tensor formulation")
    stats = JoinStats(strategy=f"naive-nlj/{kernel.value}")
    start = time.perf_counter()
    left_items = list(left_items)
    right_items = list(right_items)
    stats.n_left, stats.n_right = len(left_items), len(right_items)

    out_left: list[int] = []
    out_right: list[int] = []
    out_scores: list[float] = []
    for i, litem in enumerate(left_items):
        row = np.empty(len(right_items), dtype=np.float32)
        for j, ritem in enumerate(right_items):
            # Model on the critical path: embed BOTH tuples per pair.
            lvec = model.embed(litem)
            rvec = model.embed(ritem)
            stats.model_calls += 2
            if kernel is Kernel.SCALAR:
                row[j] = cosine_scalar(lvec, rvec)
            else:
                row[j] = float(lvec @ rvec)  # unit vectors: dot == cosine
            stats.similarity_evaluations += 1
        idx, picked = _emit_row(row, condition)
        out_left.extend([i] * len(idx))
        out_right.extend(idx.tolist())
        out_scores.extend(picked.tolist())

    stats.seconds = time.perf_counter() - start
    return JoinResult(
        np.asarray(out_left, dtype=np.int64),
        np.asarray(out_right, dtype=np.int64),
        np.asarray(out_scores, dtype=np.float32),
        stats,
    )


def _nlj_rows(
    left_n: np.ndarray,
    right_n: np.ndarray,
    condition: JoinCondition,
    kernel: Kernel,
    lo: int,
    hi: int,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Run the pairwise loop for left rows ``[lo, hi)`` (one morsel)."""
    out_left: list[np.ndarray] = []
    out_right: list[np.ndarray] = []
    out_scores: list[np.ndarray] = []
    for i in range(lo, hi):
        if kernel is Kernel.SCALAR:
            row = _scalar_row(left_n[i], right_n)
        else:
            row = right_n @ left_n[i]
        idx, picked = _emit_row(row, condition)
        if len(idx) == 0:
            continue
        out_left.append(np.full(len(idx), i, dtype=np.int64))
        out_right.append(idx)
        out_scores.append(picked)
    return out_left, out_right, out_scores


def prefetch_nlj(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    kernel: Kernel = Kernel.VECTORIZED,
    swap_loops: bool = False,
    assume_normalized: bool = False,
    engine=None,
) -> JoinResult:
    """Prefetch-optimized E-NLJ.

    Embeds each input tuple exactly once (linear model cost), normalizes
    once, then runs the pairwise loop with the chosen similarity kernel:

    * ``Kernel.VECTORIZED`` — per left tuple, one NumPy matrix-vector kernel
      against the inner relation ("SIMD" series),
    * ``Kernel.SCALAR`` — pure-Python per-element loops ("NO-SIMD" series).

    ``swap_loops`` exchanges outer/inner roles to expose the loop-order
    locality effect of Figure 10 (the traditional smaller-relation-inner
    heuristic).

    ``assume_normalized`` skips normalization for inputs that are already
    unit rows (e.g. the planner's normalize-once matrix).

    An ``engine`` (:class:`repro.engine.ExecutionEngine`) morselizes the
    outer loop across its workers; morsel results reassemble in row order,
    so output is identical to the inline loop.
    """
    validate_condition(condition)
    if kernel is Kernel.GEMM:
        raise JoinError("use tensor_join() for the GEMM formulation")
    stats = JoinStats(strategy=f"prefetch-nlj/{kernel.value}")
    start = time.perf_counter()

    left_m, right_m = _as_matrices(left, right, model, stats)
    stats.n_left, stats.n_right = len(left_m), len(right_m)

    if swap_loops:
        swapped = prefetch_nlj(
            right_m, left_m, _swap_condition(condition), kernel=kernel,
            assume_normalized=assume_normalized, engine=engine,
        )
        stats.similarity_evaluations = swapped.stats.similarity_evaluations
        stats.seconds = time.perf_counter() - start
        result = JoinResult(
            swapped.right_ids, swapped.left_ids, swapped.scores, stats
        )
        return result

    left_n = left_m if assume_normalized else normalize_rows(left_m)
    right_n = right_m if assume_normalized else normalize_rows(right_m)

    if engine is not None and engine.n_threads > 1:
        parts = engine.map_morsels(
            left_n.shape[0],
            lambda m: _nlj_rows(
                left_n, right_n, condition, kernel, m.start, m.stop
            ),
            row_work=right_n.shape[0] * right_n.shape[1],
        )
    else:
        parts = [
            _nlj_rows(left_n, right_n, condition, kernel, 0, left_n.shape[0])
        ]
    out_left: list[np.ndarray] = []
    out_right: list[np.ndarray] = []
    out_scores: list[np.ndarray] = []
    for part_left, part_right, part_scores in parts:
        out_left.extend(part_left)
        out_right.extend(part_right)
        out_scores.extend(part_scores)
    stats.similarity_evaluations = left_n.shape[0] * right_n.shape[0]
    stats.extra["morsels"] = len(parts)

    stats.seconds = time.perf_counter() - start
    if not out_left:
        return JoinResult.empty(stats)
    return JoinResult(
        np.concatenate(out_left),
        np.concatenate(out_right),
        np.concatenate(out_scores),
        stats,
    )


def _scalar_row(query: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Pure-Python inner loop over the inner relation (NO-SIMD path)."""
    n = inner.shape[0]
    row = np.empty(n, dtype=np.float32)
    qlist = query.tolist()
    for j in range(n):
        total = 0.0
        for x, y in zip(qlist, inner[j].tolist()):
            total += x * y
        row[j] = total
    return row


def _swap_condition(condition: JoinCondition) -> JoinCondition:
    """Conditions valid under operand exchange.

    A threshold condition is symmetric.  Top-k is *per left tuple* and does
    not commute — swapping loops under top-k would change semantics, so we
    refuse.
    """
    if isinstance(condition, ThresholdCondition):
        return condition
    raise JoinError(
        "swap_loops is only valid for symmetric (threshold) conditions; "
        "top-k is per-left-tuple"
    )
