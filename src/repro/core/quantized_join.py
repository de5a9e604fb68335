"""Quantized tensor join: compressed code scan plus exact fp32 re-rank.

The paper's precision ablation (Section V-A-2) stops at fp16; this module
carries the operand-byte lever to int8 scalar quantization and product
quantization.  The join becomes a two-phase scan:

1. **Approximate pass** — the right relation is scanned as codes
   (``dim`` bytes/row for int8, ``m`` bytes/row for PQ) block by block
   under the Figure 7 buffer budget.  The operator is
   :func:`repro.core.scan.scan_join`, the body every scan join shares;
   this module hands it the codes representation: the quantizer's
   ``scorer`` (a BLAS GEMM over casted codes, or an ADC sparse product)
   with its per-query ``bias``, and the quantizer's error ``bound``.
2. **Exact re-rank** — each left row's best ``multiple * k``
   approximate candidates (or, for threshold joins, everything above
   ``threshold - error_bound``, one scanned block at a time so that only
   true matches pool) are re-scored against the stored fp32
   rows (:func:`_exact_scores`, the representation's ``rerank``), then
   folded to ``k`` or filtered at the threshold, so the emitted scores
   are exact and threshold results provably contain every true match
   (the quantizer's error bound makes the approximate filter sound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..config import get_config
from ..embedding.base import EmbeddingModel
from ..engine import ExecutionEngine
from ..errors import DimensionalityError, JoinError
from ..vector.norms import finite_norms, normalize_rows
from ..vector.quant import Int8Quantizer, ProductQuantizer, VectorQuantizer
from .conditions import JoinCondition, TopKCondition, validate_condition
from .eselect import SelectionResult, _as_query
from .nlj import _as_matrices, _as_matrix
from .result import JoinResult, JoinStats
from .scan import scan_join

#: Quantization methods the join understands.
QUANT_METHODS = ("int8", "pq")

#: Upper bound on transient gather bytes during the exact re-rank.
_RERANK_CHUNK_BYTES = 4 << 20


@dataclass
class QuantizedRelation:
    """A relation stored as quantizer codes plus fp32 rows for re-ranking.

    The codes are what the approximate scan streams (the compressed access
    path); the unit-normalized fp32 rows are touched only for the sparse
    set of re-rank candidates — the same storage split FAISS's refine
    wrappers use.
    """

    quantizer: VectorQuantizer
    codes: np.ndarray
    vectors: np.ndarray
    method: str
    build_seconds: float = 0.0
    #: What the quantizer's scorer streams (``quantizer.scan_rows(codes)``:
    #: the codes, or PQ's one-hot CSR), built once per relation.
    scan_rows: object = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.quantizer.dim

    @property
    def code_bytes(self) -> int:
        """Bytes the approximate scan streams."""
        total = int(self.codes.nbytes)
        if sparse.issparse(self.scan_rows):
            # CSR column indices are part of the scanned representation.
            total += int(self.scan_rows.indices.nbytes)
        return total

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        method: str = "int8",
        *,
        quantizer: VectorQuantizer | None = None,
        assume_normalized: bool = False,
        **params,
    ) -> "QuantizedRelation":
        """Fit (unless a fitted quantizer is supplied), encode, and index."""
        start = time.perf_counter()
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DimensionalityError(
                f"expected (n, d) vectors, got shape {vectors.shape}"
            )
        if method not in QUANT_METHODS:
            raise JoinError(
                f"unknown quantization method {method!r}; have {QUANT_METHODS}"
            )
        if assume_normalized:
            finite_norms(vectors)  # the rejection normalize_rows makes
        normalized = vectors if assume_normalized else normalize_rows(vectors)
        if quantizer is None:
            dim = vectors.shape[1]
            quantizer = (
                Int8Quantizer(dim) if method == "int8" else ProductQuantizer(dim, **params)
            )
        freshly_fitted = not quantizer.fitted
        if freshly_fitted:
            quantizer.fit(normalized)
        if isinstance(quantizer, ProductQuantizer) and freshly_fitted:
            # fit() already tracked residuals over exactly these rows; skip
            # the second full decode pass.
            codes = quantizer.encode(normalized, _track=False)
        else:
            codes = quantizer.encode(normalized)
        return cls(
            quantizer=quantizer,
            codes=codes,
            vectors=normalized,
            method=method,
            build_seconds=time.perf_counter() - start,
            scan_rows=quantizer.scan_rows(codes),
        )


def _exact_scores(
    lb: np.ndarray,
    li: np.ndarray,
    right_vectors: np.ndarray,
    ri: np.ndarray,
) -> np.ndarray:
    """Exact fp32 dots for candidate pairs, gathered in bounded chunks."""
    out = np.empty(len(li), dtype=np.float32)
    chunk = max(256, _RERANK_CHUNK_BYTES // (8 * max(lb.shape[1], 1)))
    for c0 in range(0, len(li), chunk):
        c1 = min(c0 + chunk, len(li))
        out[c0:c1] = np.einsum(
            "ij,ij->i", lb[li[c0:c1]], right_vectors[ri[c0:c1]]
        )
    return out


def quantized_tensor_join(
    left,
    right,
    condition: JoinCondition,
    *,
    method: str | None = None,
    model: EmbeddingModel | None = None,
    rerank_multiple: int | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    engine: ExecutionEngine | None = None,
    quantizer: VectorQuantizer | None = None,
) -> JoinResult:
    """Quantized-code scan E-join with exact fp32 re-ranking.

    Args:
        left: ``(n, d)`` probe vectors or raw items with ``model``.
        right: ``(n, d)`` base vectors/items, or a pre-built
            :class:`QuantizedRelation` (so repeated joins amortize the
            fit/encode build exactly like an index build).
        condition: threshold or top-k join condition.
        method: ``"int8"`` or ``"pq"``; defaults to the configured
            ``default_precision`` when that is quantized, else ``"int8"``.
            Ignored (taken from the store) when ``right`` is pre-built.
        rerank_multiple: top-k candidate multiple — each left row re-ranks
            its best ``multiple * k`` approximate candidates in fp32.
            ``multiple * k >= |S|`` degenerates to the exact join.
        buffer_budget_bytes: Figure 7 budget covering the approximate
            score block, the per-row candidate pool (and PQ lookup
            tables); split across workers under a multi-threaded engine.

    Returns:
        :class:`JoinResult` with **exact** fp32 scores for every emitted
        pair.  Threshold joins contain every true match (the quantizer
        error bound makes the prescreen sound); top-k joins may miss a
        true neighbour only when it falls outside the candidate multiple.
    """
    validate_condition(condition)
    config = get_config()
    if isinstance(right, QuantizedRelation):
        store = right
        if method is not None and method != store.method:
            raise JoinError(
                f"method {method!r} conflicts with pre-built "
                f"{store.method!r} store"
            )
        method = store.method
    else:
        if method is None:
            method = (
                config.default_precision
                if config.default_precision in QUANT_METHODS
                else "int8"
            )
        store = None
    if method not in QUANT_METHODS:
        raise JoinError(
            f"unknown quantization method {method!r}; have {QUANT_METHODS}"
        )
    if rerank_multiple is None:
        rerank_multiple = config.default_rerank_multiple
    if rerank_multiple < 1:
        raise JoinError(f"rerank_multiple must be >= 1, got {rerank_multiple}")

    stats = JoinStats(strategy=f"tensor-{method}")
    start = time.perf_counter()
    if store is None:
        left_m, right_m = _as_matrices(left, right, model, stats)
        stats.n_right = len(right_m)
        if right_m.size:
            store = QuantizedRelation.build(right_m, method, quantizer=quantizer)
            stats.extra["build_seconds"] = store.build_seconds
    else:
        left_m = _as_matrix(left, model, stats)
        stats.n_right = len(store)
        if left_m.shape[1] and left_m.shape[1] != store.dim:
            raise DimensionalityError(
                f"dimensionality mismatch: {left_m.shape[1]} vs {store.dim}"
            )
    stats.n_left = len(left_m)
    if store is None or not len(left_m):  # an empty side: nothing to encode or scan
        stats.seconds = time.perf_counter() - start
        return JoinResult.empty(stats)

    left_n = normalize_rows(left_m)
    stats.extra["bytes_per_code"] = store.quantizer.bytes_per_code
    stats.extra["operand_bytes"] = int(left_n.nbytes) + store.code_bytes
    stats.extra["candidate_multiple"] = rerank_multiple

    def scorer(lb: np.ndarray, width: int):
        score, bias = store.quantizer.scorer(lb)
        return (lambda r0, r1: score(store.scan_rows[r0:r1])), bias

    n_right = len(store)
    result = scan_join(
        stats,
        left_n,
        n_right,
        condition,
        scorer,
        # Any pair whose exact score reaches the threshold has an
        # approximate one above ``threshold - bound``; a top-k row keeps
        # its best ``multiple * k`` approximate cells.
        bound=store.quantizer.score_error_bound(),
        keep=(
            min(rerank_multiple * condition.k, n_right)
            if isinstance(condition, TopKCondition)
            else None
        ),
        rerank=lambda lb, li, ri: _exact_scores(lb, li, store.vectors, ri),
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        engine=engine,
    )
    # Every re-ranked candidate is one evaluation on top of the code scan.
    stats.extra["rerank_candidates"] = (
        stats.similarity_evaluations - stats.n_left * stats.n_right
    )
    stats.seconds = time.perf_counter() - start
    return result


def quantized_eselect(
    relation,
    query: np.ndarray,
    condition: JoinCondition,
    *,
    method: str | None = None,
    model: EmbeddingModel | None = None,
    rerank_multiple: int | None = None,
    buffer_budget_bytes: int | None = None,
) -> SelectionResult:
    """Quantized-scan E-selection: the one-query special case of the join.

    ``relation`` may be raw vectors or a pre-built
    :class:`QuantizedRelation`.  Returns a
    :class:`~repro.core.eselect.SelectionResult` with exact fp32 scores.
    """
    result = quantized_tensor_join(
        _as_query(query)[None, :],
        relation,
        condition,
        method=method,
        model=model,
        rerank_multiple=rerank_multiple,
        buffer_budget_bytes=buffer_budget_bytes,
    )
    stats = result.stats
    stats.strategy = stats.strategy.replace("tensor-", "eselect/", 1)
    return SelectionResult(result.right_ids, result.scores, stats)
