"""Quantized tensor join: int8 code scan plus exact fp32 re-rank.

The paper's precision ablation (Section V-A-2) stops at fp16; this module
carries the operand-byte lever to int8 scalar quantization.  The join
becomes a two-phase scan:

1. **Approximate pass** — the right relation is scanned as codes (``dim``
   bytes a row) block by block under the Figure 7 buffer budget.  The
   operator is :func:`repro.core.scan.scan_join`, the body every scan join
   shares; this module hands it the codes representation
   (:meth:`QuantizedRelation.representation`): the quantizer's ``scorer``
   (a BLAS GEMM over casted codes) with its per-query ``bias``, and the
   quantizer's error ``bound``.
2. **Exact re-rank** — each left row's best ``k +``
   :data:`~repro.core.scan.TOPK_PRESCREEN_PAD` approximate candidates
   (or, for threshold joins, everything above ``threshold -
   error_bound``, one scanned block at a time so that only true matches
   pool) are re-scored against the stored fp32 rows
   (:func:`_exact_scores`, the representation's ``rerank``).  A
   threshold join keeps what reaches the threshold; a top-k row is
   proved by :func:`~repro.core.scan.prove_topk` — its dropped cells'
   floor plus the quantizer's error bound under its k-th exact score —
   or rescanned at that score.  Both answers equal the fp32 join's.

Handed the right side's cap partition (:mod:`repro.core.caps`), a left
task first tries the cap path, exactly as the fp32 join does: the cap bound
is on the exact score and the caps hold the same unit rows the re-rank
reads, so a task its bounds prune scores its kept cells exactly and
neither streams the codes nor re-ranks.  The codes stay the prescreen of
every task the caps decline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import ExecutionEngine
from ..errors import DimensionalityError, JoinError
from ..vector.norms import finite_norms, normalize_rows
from ..vector.quant import Int8Quantizer
from .caps import CapPartition
from .conditions import JoinCondition, validate_condition
from .eselect import SelectionResult, _as_query
from .nlj import _as_matrices, _as_matrix
from .result import JoinResult, JoinStats
from .scan import Representation, scan_join

#: Quantization methods the join understands.
QUANT_METHODS = ("int8",)

#: Upper bound on transient gather bytes during the exact re-rank.
_RERANK_CHUNK_BYTES = 4 << 20


@dataclass
class QuantizedRelation:
    """A relation stored as int8 codes plus fp32 rows for re-ranking.

    The codes are what the approximate scan streams (the compressed access
    path); the unit-normalized fp32 rows are touched only for the sparse
    set of re-rank candidates — the same storage split FAISS's refine
    wrappers use.
    """

    quantizer: Int8Quantizer
    codes: np.ndarray
    vectors: np.ndarray
    build_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.quantizer.dim

    @property
    def code_bytes(self) -> int:
        """Bytes the approximate scan streams."""
        return int(self.codes.nbytes)

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        method: str = "int8",
        *,
        assume_normalized: bool = False,
    ) -> "QuantizedRelation":
        """Normalize, fit a quantizer on the unit rows and encode them."""
        start = time.perf_counter()
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DimensionalityError(
                f"expected (n, d) vectors, got shape {vectors.shape}"
            )
        _check_method(method)
        if assume_normalized:
            finite_norms(vectors)  # the rejection normalize_rows makes
        normalized = vectors if assume_normalized else normalize_rows(vectors)
        quantizer = Int8Quantizer(vectors.shape[1]).fit(normalized)
        return cls(
            quantizer=quantizer,
            codes=quantizer.encode(normalized),
            vectors=normalized,
            build_seconds=time.perf_counter() - start,
        )

    def representation(self) -> Representation:
        """The codes as a scan streams them: the quantizer's ``scorer`` (a
        BLAS GEMM over casted codes) with its per-query ``bias`` and error
        ``bound``, re-ranked against the fp32 rows; left rows are
        normalized first."""

        def scorer(lb: np.ndarray, width: int):
            score, bias = self.quantizer.scorer(lb)
            return (lambda r0, r1: score(self.codes[r0:r1])), bias

        return Representation(
            self.codes,
            scorer,
            row_bytes=self.quantizer.bytes_per_code,
            # Any pair whose exact score reaches a floor has an approximate
            # one above ``floor - bound``.
            bound=self.quantizer.score_error_bound(),
            rerank=lambda lb, li, ri: _exact_scores(lb, li, self.vectors, ri),
            prepare=normalize_rows,
        )


def _check_method(method: str) -> None:
    if method not in QUANT_METHODS:
        raise JoinError(
            f"unknown quantization method {method!r}; have {QUANT_METHODS}"
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
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    engine: ExecutionEngine | None = None,
    caps: CapPartition | None = None,
) -> JoinResult:
    """Quantized-code scan E-join with exact fp32 re-ranking.

    Args:
        left: ``(n, d)`` probe vectors or raw items with ``model``.
        right: ``(n, d)`` base vectors/items, or a pre-built
            :class:`QuantizedRelation` (so repeated joins amortize the
            fit/encode build exactly like an index build).
        condition: threshold or top-k join condition.
        method: ``"int8"`` (or ``None``), the one quantization method.
        buffer_budget_bytes: Figure 7 budget covering the approximate
            score block and the per-row candidate pool; split across
            workers under a multi-threaded engine.
        caps: the cap partition of ``right``'s unit rows
            (:func:`repro.core.caps.build_caps`): a left block scores only
            the caps its bounds keep, if few, and skips the codes.

    Returns:
        :class:`JoinResult` with **exact** fp32 scores for every emitted
        pair and the fp32 join's pairs: the quantizer error bound makes
        the threshold prescreen sound and proves each top-k row
        (``stats.extra["rescanned_rows"]`` counts the rows it could not
        prove on their first candidates).
    """
    validate_condition(condition)
    if method is not None:
        _check_method(method)
    store = right if isinstance(right, QuantizedRelation) else None
    stats = JoinStats(strategy="tensor-int8")
    start = time.perf_counter()
    if store is None:
        left_m, right_m = _as_matrices(left, right, model, stats)
        stats.n_right = len(right_m)
        if right_m.size:
            store = QuantizedRelation.build(right_m)
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

    codes = store.representation()
    stats.extra["bytes_per_code"] = codes.row_bytes
    stats.extra["operand_bytes"] = 4 * left_m.size + store.code_bytes
    result = scan_join(
        stats,
        left_m,
        codes,
        condition,
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        engine=engine,
        caps=caps,
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
        buffer_budget_bytes=buffer_budget_bytes,
    )
    stats = result.stats
    stats.strategy = stats.strategy.replace("tensor-", "eselect/", 1)
    return SelectionResult(result.right_ids, result.scores, stats)
