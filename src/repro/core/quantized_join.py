"""Quantized tensor join: compressed code scan plus exact fp32 re-rank.

The paper's precision ablation (Section V-A-2) stops at fp16; this module
carries the operand-byte lever to int8 scalar quantization and product
quantization.  The join becomes a two-phase scan:

1. **Approximate pass** — the right relation is scanned as codes
   (``dim`` bytes/row for int8, ``m`` bytes/row for PQ) block by block
   under the Figure 7 buffer budget.  Scores come from the quantizer's
   asymmetric kernel (a BLAS GEMM over casted codes, or an ADC sparse
   product), and candidates survive a running score threshold instead of
   an exact per-block top-k merge — one SIMD compare per cell instead of a
   partition sort.
2. **Exact re-rank** — each left row's best ``multiple * k`` approximate
   candidates (or, for threshold joins, everything above
   ``threshold - error_bound``) are re-scored against the stored fp32
   rows, so the emitted scores are exact and threshold results provably
   contain every true match (the quantizer's error bound makes the
   approximate filter sound).

Left blocks are independent tasks, so a multi-threaded
:class:`~repro.engine.ExecutionEngine` schedules them exactly like the
fp32 tensor join, with the budget split across concurrently resident
blocks and each block's candidate pool bounded by a compress-on-overflow
cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..config import get_config
from ..embedding.base import EmbeddingModel
from ..engine import BatchPolicy, ExecutionEngine
from ..errors import DimensionalityError, JoinError
from ..vector.norms import normalize_rows
from ..vector.quant import Int8Quantizer, ProductQuantizer, VectorQuantizer
from ..vector.select import (
    TRIPLE_BYTES,
    TopKReducer,
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
from .tensor_join import resolve_block_shape

#: Quantization methods the join understands.
QUANT_METHODS = ("int8", "pq")

#: Upper bound on transient gather bytes during the exact re-rank.
_RERANK_CHUNK_BYTES = 4 << 20


def _default_quantizer(method: str, dim: int, **params) -> VectorQuantizer:
    if method == "int8":
        return Int8Quantizer(dim)
    if method == "pq":
        return ProductQuantizer(dim, **params)
    raise JoinError(f"unknown quantization method {method!r}; have {QUANT_METHODS}")


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
    onehot: sparse.csr_matrix | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.quantizer.dim

    @property
    def code_bytes(self) -> int:
        """Bytes the approximate scan streams."""
        total = int(self.codes.nbytes)
        if self.onehot is not None:
            # CSR column indices are part of the scanned representation.
            total += int(self.onehot.indices.nbytes)
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
        normalized = vectors if assume_normalized else normalize_rows(vectors)
        if quantizer is None:
            quantizer = _default_quantizer(method, vectors.shape[1], **params)
        freshly_fitted = not quantizer.fitted
        if freshly_fitted:
            quantizer.fit(normalized)
        if isinstance(quantizer, ProductQuantizer) and freshly_fitted:
            # fit() already tracked residuals over exactly these rows; skip
            # the second full decode pass.
            codes = quantizer.encode(normalized, _track=False)
        else:
            codes = quantizer.encode(normalized)
        onehot = (
            quantizer.onehot(codes)
            if isinstance(quantizer, ProductQuantizer)
            else None
        )
        return cls(
            quantizer=quantizer,
            codes=codes,
            vectors=normalized,
            method=method,
            build_seconds=time.perf_counter() - start,
            onehot=onehot,
        )

    # ------------------------------------------------------------------
    # Scan kernels
    # ------------------------------------------------------------------
    def prepare_queries(self, queries: np.ndarray):
        """Method-specific per-left-block query expansion."""
        if self.method == "int8":
            assert isinstance(self.quantizer, Int8Quantizer)
            return self.quantizer.prepare_queries(queries)
        assert isinstance(self.quantizer, ProductQuantizer)
        # (m * ks, n_queries): the orientation the CSR product consumes.
        return np.ascontiguousarray(self.quantizer.lookup_tables(queries).T)

    def query_bias(self, prepared) -> np.ndarray | None:
        """Per-query constant omitted from scan scores (int8 affine term).

        Scan scores are shifted by this per-row constant relative to
        ``q . decode(code)``; within-row ranking is unaffected, and
        per-row cut-offs subtract it back.
        """
        if self.method == "int8":
            return prepared[1]
        return None

    def scores_block(self, prepared, r0: int, r1: int) -> np.ndarray:
        """Biasless approximate ``(n_queries, r1 - r0)`` scores for a row range.

        int8 is one GEMM over the casted code block.  PQ multiplies the
        one-hot CSR slice (row slicing a CSR matrix is O(nnz of the
        slice)) and returns the transposed view of its ``(br, n_queries)``
        product — the select reads any strides, so no copy is paid.
        """
        if self.method == "int8":
            assert isinstance(self.quantizer, Int8Quantizer)
            return self.quantizer.scores_block(
                prepared, self.codes[r0:r1], include_bias=False
            )
        assert self.onehot is not None
        return np.asarray(self.onehot[r0:r1] @ prepared).T

    def scores_rows(self, prepared, rows: np.ndarray) -> np.ndarray:
        """Biasless approximate scores for an arbitrary row subset.

        Always ``(n_queries, len(rows))`` — used by the strided gate
        sample, which is small enough that a transpose copy is free.
        """
        if self.method == "int8":
            assert isinstance(self.quantizer, Int8Quantizer)
            return self.quantizer.scores_block(
                prepared, self.codes[rows], include_bias=False
            )
        assert self.onehot is not None
        return np.asarray((self.onehot[rows] @ prepared)).T


@dataclass
class _QuantBlockPart:
    """One left block's re-ranked matches plus its counters."""

    left_ids: np.ndarray
    right_ids: np.ndarray
    scores: np.ndarray
    similarity_evaluations: int = 0
    batch_invocations: int = 0
    peak_intermediate_bytes: int = 0
    rerank_candidates: int = 0


def _empty_part() -> _QuantBlockPart:
    return _QuantBlockPart(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float32),
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


#: Gate sample safety factor: gates target rank ``GATE_SLACK * ck`` in the
#: full relation, so sampling noise almost never tightens a gate past a
#: row's true candidate set.
GATE_SLACK = 3

#: Sample rank the gate estimate sits at.  Order-statistic rank estimates
#: concentrate like ``1/sqrt(rank)``, so rank ~6 keeps a gate's effective
#: overall rank within roughly [ck, 6 * ck] — far above the top-k region.
GATE_SAMPLE_RANK = 6


def _sample_gates(
    store: QuantizedRelation,
    prepared,
    ck: int,
    chunk_width: int,
) -> np.ndarray | None:
    """Estimate per-row admission gates from a strided row sample.

    The ``r``-th best score within a stride-``n/s`` sample estimates the
    ``r * n / s``-th best overall; the sample is sized so the target rank
    ``GATE_SLACK * ck`` maps to sample rank :data:`GATE_SAMPLE_RANK`,
    keeping the gates statistically looser than each row's true
    ``ck``-th candidate — the subsequent full scan still admits (a
    superset of) the top-``ck`` while skipping the non-candidate bulk.
    The sample streams in budget-sized chunks, folding a per-row top-r
    running state.  Returns ``None`` when no informative sample exists
    (e.g. the exact-join degenerate case ``ck >= n_right / GATE_SLACK``)
    — the scan then admits everything.
    """
    n_right = len(store)
    target = max(GATE_SLACK * ck, 1)
    s = int(min(n_right, -(-GATE_SAMPLE_RANK * n_right // target)))
    r = int(round(target * s / n_right))
    if r < 1 or r >= s:
        return None
    rows = (np.arange(s, dtype=np.int64) * n_right) // s
    chunk = max(chunk_width, r + 1)
    running: np.ndarray | None = None
    for c0 in range(0, s, chunk):
        sub = store.scores_rows(prepared, rows[c0 : c0 + chunk])
        merged = (
            sub if running is None else np.concatenate([running, sub], axis=1)
        )
        w = merged.shape[1]
        if w > r:
            merged = np.partition(merged, w - r, axis=1)[:, w - r :]
        running = merged
    if running is None or running.shape[1] < r:
        return None
    # The running state holds each row's r best sample scores; its row
    # minimum is the r-th best.
    return running.min(axis=1).astype(np.float32)


def _quant_topk_block(
    lb: np.ndarray,
    l0: int,
    store: QuantizedRelation,
    condition: TopKCondition,
    br: int,
    ck: int,
) -> _QuantBlockPart:
    n_lb = lb.shape[0]
    n_right = len(store)
    part = _empty_part()
    prepared = store.prepare_queries(lb)
    # Sampled gates are the reducer's initial floors; they tighten to each
    # row's ck-th best as blocks stream through.
    pool = TopKReducer(n_lb, ck, floor=_sample_gates(store, prepared, ck, br))
    for r0 in range(0, n_right, br):
        block = store.scores_block(prepared, r0, min(r0 + br, n_right))
        part.batch_invocations += 1
        part.similarity_evaluations += block.size
        pool.push(block, r0)
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes, block.nbytes + pool.peak_bytes
        )
    li, ri, _ = pool.finalize()
    exact = _exact_scores(lb, li, store.vectors, ri)
    part.rerank_candidates = len(exact)
    part.similarity_evaluations += len(exact)
    final = TopKReducer(n_lb, condition.k)
    final.merge(li, ri, exact)
    li, ri, exact = final.finalize()
    if condition.min_similarity is not None:
        mask = exact >= condition.min_similarity
        li, ri, exact = li[mask], ri[mask], exact[mask]
    part.left_ids, part.right_ids, part.scores = li + l0, ri, exact
    return part


def _quant_threshold_block(
    lb: np.ndarray,
    l0: int,
    store: QuantizedRelation,
    condition: ThresholdCondition,
    br: int,
    margin: float,
) -> _QuantBlockPart:
    n_right = len(store)
    part = _empty_part()
    prepared = store.prepare_queries(lb)
    # Scan scores omit the per-query bias, so the sound cut-off
    # ``threshold - margin`` shifts per row.
    bias = store.query_bias(prepared)
    cut_rows = np.full(lb.shape[0], condition.threshold - margin, np.float32)
    if bias is not None:
        cut_rows = cut_rows - bias
    out: list[tuple[np.ndarray, np.ndarray]] = []
    pooled = 0
    for r0 in range(0, n_right, br):
        block = store.scores_block(prepared, r0, min(r0 + br, n_right))
        part.batch_invocations += 1
        part.similarity_evaluations += block.size
        # The margin makes the prescreen sound: any pair whose exact score
        # reaches the threshold has an approximate score above its cut.
        li, ri, _ = select_above(block, cut_rows)
        pooled += len(li)
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes,
            block.nbytes + maxima_bytes(*block.shape) + pooled * TRIPLE_BYTES,
        )
        out.append((li, ri + r0))
    li, ri = (np.concatenate(column) for column in zip(*out))
    exact = _exact_scores(lb, li, store.vectors, ri)
    part.rerank_candidates = len(exact)
    part.similarity_evaluations += len(exact)
    mask = exact >= condition.threshold
    li, ri, exact = li[mask], ri[mask], exact[mask]
    order = np.lexsort((ri, li))
    part.left_ids = li[order] + l0
    part.right_ids = ri[order]
    part.scores = exact[order]
    return part


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
    policy: BatchPolicy | None = None,
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
    left_m = _as_matrix(left, model, stats)
    if store is None:
        right_m = _as_matrix(right, model, stats)
        if left_m.shape[1] != right_m.shape[1]:
            raise DimensionalityError(
                f"dimensionality mismatch: {left_m.shape[1]} vs "
                f"{right_m.shape[1]}"
            )
        if right_m.shape[0] and right_m.shape[1]:
            store = QuantizedRelation.build(
                right_m, method, quantizer=quantizer
            )
            stats.extra["build_seconds"] = store.build_seconds
        n_right = right_m.shape[0]
    else:
        n_right = len(store)
    if left_m.shape[1] and store is not None and left_m.shape[1] != store.dim:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {store.dim}"
        )
    stats.n_left, stats.n_right = len(left_m), n_right
    if stats.n_left == 0 or stats.n_right == 0 or store is None:
        stats.seconds = time.perf_counter() - start
        return JoinResult.empty(stats)

    left_n = normalize_rows(left_m)
    stats.extra["bytes_per_code"] = store.quantizer.bytes_per_code
    stats.extra["operand_bytes"] = int(left_n.nbytes) + store.code_bytes

    if isinstance(condition, TopKCondition):
        ck = min(rerank_multiple * condition.k, n_right)
        margin = 0.0
    else:
        assert isinstance(condition, ThresholdCondition)
        ck = 0
        margin = store.quantizer.score_error_bound()
    stats.extra["candidate_multiple"] = rerank_multiple

    # The budget covers the score block plus the per-row candidate state,
    # as in the fp32 join; operand blocks (query rows, code blocks, PQ
    # lookup tables) are not charged on either side.
    reserve = TopKReducer.state_bytes_per_row(ck)
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

    bounds = [
        (l0, min(l0 + bl, stats.n_left))
        for l0 in range(0, stats.n_left, bl)
    ]

    def block_task(span: tuple[int, int]) -> _QuantBlockPart:
        l0, l1 = span
        if isinstance(condition, TopKCondition):
            return _quant_topk_block(
                left_n[l0:l1], l0, store, condition, br, ck
            )
        assert isinstance(condition, ThresholdCondition)
        return _quant_threshold_block(
            left_n[l0:l1], l0, store, condition, br, margin
        )

    if engine is None or engine.n_threads == 1 or len(bounds) == 1:
        parts = [block_task(span) for span in bounds]
    else:
        parts = engine.run(
            [lambda span=span: block_task(span) for span in bounds]
        )

    rerank_total = 0
    for part in parts:
        stats.similarity_evaluations += part.similarity_evaluations
        stats.batch_invocations += part.batch_invocations
        rerank_total += part.rerank_candidates
        stats.extra["peak_intermediate_bytes"] = max(
            stats.extra.get("peak_intermediate_bytes", 0),
            part.peak_intermediate_bytes,
        )
    stats.extra["rerank_candidates"] = rerank_total
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


def quantized_eselect(
    relation,
    query: np.ndarray,
    condition: JoinCondition,
    *,
    method: str | None = None,
    model: EmbeddingModel | None = None,
    rerank_multiple: int | None = None,
    buffer_budget_bytes: int | None = None,
):
    """Quantized-scan E-selection: the one-query special case of the join.

    ``relation`` may be raw vectors or a pre-built
    :class:`QuantizedRelation`.  Returns a
    :class:`~repro.core.eselect.SelectionResult` with exact fp32 scores.
    """
    from .eselect import SelectionResult

    query = np.asarray(query, dtype=np.float32)
    if query.ndim != 1:
        raise DimensionalityError(
            f"query must be a 1-D vector, got ndim={query.ndim}"
        )
    result = quantized_tensor_join(
        query[None, :],
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
