"""Tensor-join formulation (Sections IV-C, V-B; Figures 6, 7, 11-14).

The join becomes a block-matrix dot product: normalize both relations once
(cosine == dot for unit vectors), partition **along tuple boundaries, not
dimensions**, and compute ``D = R @ S.T`` block-by-block with BLAS GEMM.
The operator is :func:`repro.core.scan.scan_join`, the body every scan
join shares; this module hands it the fp32 representation,
:func:`unit_rows` — a scorer that GEMMs each right block into one reusable
score buffer — so every block is pruned to qualifying offset pairs before
the next overwrites it and peak memory is ``batch_left * batch_right``
floats regardless of input size (the Figure 7 buffer budget).  Top-k
conditions fold into the scan's bounded reducer, so the budget also covers
the candidate state, end to end.  There is no re-rank: the GEMM's own scores are the emitted scores.

Left blocks are independent tasks; handing the join an
:class:`~repro.engine.ExecutionEngine` runs them on its
thread pool, and the block shape is
:func:`repro.vector.select.scan_shape`'s for that engine.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import ExecutionEngine
from ..vector.norms import normalize_rows
from ..vector.select import scan_shape
from .caps import CapPartition
from .conditions import JoinCondition, validate_condition
from .nlj import _as_matrices, prefetch_nlj
from .result import JoinResult, JoinStats
from .scan import Representation, scan_join


#: The engine-less name of the shape rule: with no ``workers`` it stops
#: after explicit edges and the Figure 7 budget — square-ish edges with
#: ``batch_l * batch_r * 4 bytes <= buffer_budget_bytes``.
resolve_batch_shape = scan_shape


def dense_scorer(rows: np.ndarray, prepare=lambda block: block):
    """The scorer of dense rows: one GEMM per right block, every block of
    a task landing in that task's one buffer (Figure 6 step 1 — the scan
    is done with a block before it asks for the next).  ``prepare`` turns
    a stored left/right block into fp32 unit rows."""

    def scorer(lb: np.ndarray, width: int):
        lb = prepare(lb)
        buffer = np.empty(len(lb) * width, dtype=np.float32)

        def score_block(r0: int, r1: int) -> np.ndarray:
            out = buffer[: len(lb) * (r1 - r0)].reshape(len(lb), r1 - r0)
            return np.matmul(lb, prepare(rows[r0:r1]).T, out=out)

        return score_block, None

    return scorer


def unit_rows(right_n: np.ndarray) -> Representation:
    """The fp32 representation: unit rows scanned as they are, against
    unit left rows; the GEMM's own scores are the emitted ones."""
    return Representation(right_n, dense_scorer(right_n), row_bytes=4 * right_n.shape[1])


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
    caps: CapPartition | None = None,
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
        engine: execution engine scheduling left blocks across its
            workers; its worker count, morsel size and buffer budget feed
            the shape rule.  ``None`` runs blocks inline, as one worker
            with the global config's defaults.
        caps: ``right``'s cap partition (:func:`repro.core.caps.build_caps`):
            a left block scores only the caps its bounds keep, if few.

    Returns:
        Sparse offset-pair :class:`JoinResult`; ``stats`` records peak
        buffer cells and GEMM invocations for the Figure 13 trade-off.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor")
    start = time.perf_counter()
    left_m, right_m = _as_matrices(left, right, model, stats)
    if not assume_normalized:
        left_m, right_m = normalize_rows(left_m), normalize_rows(right_m)
    result = scan_join(
        stats,
        left_m,
        unit_rows(right_m),
        condition,
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        engine=engine,
        caps=caps,
    )
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
    # Matrix-vector per left row — right batched, left streamed — is the
    # vectorized NLJ's loop; here each row counts as one BLAS call.
    result = prefetch_nlj(left, right, condition, model=model)
    result.stats.strategy = "tensor-non-batched"
    result.stats.batch_invocations = result.stats.n_left
    return result
