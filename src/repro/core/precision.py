"""Reduced-precision tensor join (paper Section V-A-2).

The paper points at AVX-512 FP16 and AMX as hardware directions: half-
precision halves the memory footprint of high-dimensional embeddings and
doubles SIMD lane count, at a small accuracy cost.  NumPy has no fast FP16
GEMM, so this module reproduces the *memory* half of the trade-off exactly
and the accuracy effect faithfully:

* operands are stored as float16 (half the bytes — measurable),
* blocks are upcast to float32 on entry to the GEMM (how real FP16 pipelines
  accumulate in FP32) — one left task and one right block at a time, so no
  fp32 copy of either relation ever exists beside the fp16 one,
* scores therefore carry FP16 quantization error, quantified by
  :func:`precision_error_bound` and tested against it.

fp16 is this ablation only; the planner never serves it.  Its scan keeps no
cap partition and upcasts every block it reads, so a served fp16 join read
~6x slower than the fp32 one (73 vs 12 ms p50 on a 1,000 x 40,000 x 128
top-10 join, 2 cores).
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..vector.norms import normalize_rows
from .conditions import JoinCondition, validate_condition
from .nlj import _as_matrices
from .result import JoinResult, JoinStats
from .scan import Representation, scan_join
from .tensor_join import dense_scorer

#: Rows normalized at a time on the way into fp16 storage.
_QUANTIZE_ROWS = 4096


def quantize_fp16(matrix: np.ndarray) -> np.ndarray:
    """Normalize then quantize unit rows to float16 storage, a slab of
    rows at a time: the only whole-matrix allocation is the fp16 one."""
    matrix = np.asarray(matrix, dtype=np.float32)
    out = np.empty(matrix.shape, dtype=np.float16)
    for start in range(0, len(matrix), _QUANTIZE_ROWS):
        out[start : start + _QUANTIZE_ROWS] = normalize_rows(
            matrix[start : start + _QUANTIZE_ROWS]
        )
    return out


def precision_error_bound(dim: int) -> float:
    """Worst-case |cos_fp16 - cos_fp32| for unit vectors of ``dim``.

    Each FP16 component carries relative error <= 2^-11; a dot product of
    ``dim`` products of two quantized unit-vector components accumulates at
    most ``2 * 2^-11 * sqrt-ish`` error; we use the conservative linear
    bound ``2^-10 * sqrt(dim)`` which holds comfortably in practice.
    """
    return (2.0**-10) * float(np.sqrt(dim)) + 2.0**-10


def fp16_rows(right_h: np.ndarray) -> Representation:
    """The fp16 representation of :func:`quantize_fp16` rows: storage stays
    FP16, accumulation is FP32 — ``normalize_rows`` upcasts each left task
    and right block it is handed and re-normalizes it (quantization perturbs
    norms); the left side is quantized the same way first."""
    return Representation(
        right_h,
        dense_scorer(right_h, normalize_rows),
        row_bytes=2 * right_h.shape[1],
        prepare=quantize_fp16,
    )


def tensor_join_fp16(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    engine=None,
) -> JoinResult:
    """Tensor join with FP16-quantized operands.

    Results may differ from the FP32 join only for pairs whose similarity
    lies within :func:`precision_error_bound` of the decision boundary.
    ``stats.extra["operand_bytes"]`` records the (halved) operand footprint.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor-fp16")
    start = time.perf_counter()
    left_m, right_m = _as_matrices(left, right, model, stats)
    right_h = fp16_rows(quantize_fp16(right_m))
    stats.extra["operand_bytes"] = 2 * left_m.size + right_h.row_bytes * len(right_h)
    result = scan_join(
        stats,
        left_m,
        right_h,
        condition,
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        engine=engine,
    )
    stats.seconds = time.perf_counter() - start
    return result
