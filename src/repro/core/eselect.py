"""Context-enhanced selection: sigma_{E,mu,theta}(R) (Section III-C).

The selection counterpart of the E-join: given a relation of context-rich
items (or their embeddings) and a *query* item, return the tuples whose
similarity to the query satisfies theta.  Its cost is the paper's
E-Selection Cost equation, ``|R| * (A + M + C)`` — linear, with the model
term removable by prefetching exactly as in the join.

:func:`eselect` is scan-based and exact under any condition.  It runs as
**prescreen + exact rescore**: a fast BLAS pass produces approximate scores
whose only job is to select a provable candidate superset, and the
emitted rows are then re-scored with the
shape-stable :func:`~repro.vector.kernels.stable_dot_scores` kernel.
Emitted ids and scores are therefore a pure function of the data and the
query — independent of how the scan was blocked or batched — which is
what lets the concurrent query service's cross-query shared scans return
bit-identical results to serial execution.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..errors import DimensionalityError, JoinError
from ..vector.kernels import stable_dot_scores
from ..vector.norms import normalize_rows, normalize_vector
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .nlj import _as_matrix
from .result import JoinStats
from .scan import dense_score_block, merge_topk, rows_above, scan_candidates

#: Margin subtracted from prescreen thresholds so float rounding in the
#: approximate BLAS pass can never exclude a row the exact kernel would
#: emit.  Dot products of unit vectors deviate from the exact value by
#: O(d * eps_fp32) ~ 1e-4 at d = 2048; 1e-3 is a safe bound for any
#: realistic embedding dimensionality.
PRESCREEN_MARGIN = 1e-3

#: Extra prescreen candidates retained beyond ``k`` for top-k conditions,
#: before the margin-widening pass proves the candidate set complete.
TOPK_PRESCREEN_PAD = 32


class SelectionResult:
    """Offsets + scores of tuples satisfying an E-selection."""

    def __init__(self, ids: np.ndarray, scores: np.ndarray, stats: JoinStats):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float32)
        if len(self.ids) != len(self.scores):
            raise JoinError(
                f"ragged selection result: {len(self.ids)} ids, "
                f"{len(self.scores)} scores"
            )
        self.stats = stats

    def __len__(self) -> int:
        return len(self.ids)


def _query_vector(query, model: EmbeddingModel | None, stats: JoinStats) -> np.ndarray:
    if isinstance(query, np.ndarray):
        if query.ndim != 1:
            raise DimensionalityError(
                f"query must be a 1-D vector, got ndim={query.ndim}"
            )
        return normalize_vector(np.asarray(query, dtype=np.float32))
    if model is None:
        raise JoinError("a raw query item requires an embedding model")
    stats.model_calls += 1
    # Unit-normalize unconditionally: downstream probes assume unit rows
    # (models normalize by default, but it is optional).
    return normalize_vector(model.embed(query))


def exact_threshold_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact threshold selection over a prescreened candidate superset.

    ``candidates`` must contain every row whose *exact* score could reach
    ``threshold`` (guaranteed when they were selected with approximate
    score >= ``threshold - PRESCREEN_MARGIN``).  Returns ``(ids, scores)``
    in ascending-id order with shape-stable exact scores — identical for
    any candidate superset, so serial and coalesced scans agree bitwise.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    exact = stable_dot_scores(normalized[candidates], qvec)
    keep = exact >= threshold
    return candidates[keep], exact[keep]


def exact_topk_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    k: int,
    *,
    min_similarity: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k selection over a prescreened candidate superset.

    ``candidates`` must contain every row whose exact score ties or beats
    the true k-th best.  Selection is by (exact score descending, id
    ascending) — :func:`top_k_indices` semantics — so any valid superset
    yields the same ids and scores.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    exact = stable_dot_scores(normalized[candidates], qvec)
    order = np.lexsort((candidates, -exact))[: min(k, len(candidates))]
    ids, scores = candidates[order], exact[order]
    if min_similarity is not None:
        keep = scores >= min_similarity
        ids, scores = ids[keep], scores[keep]
    return ids, scores


def guarded_topk_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    floor: float,
    qvec: np.ndarray,
    condition: TopKCondition,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Exact top-k from prescreen candidates, complete or made so.

    The one completeness rule of every served scan: each row the
    prescreen dropped has approximate score ``<= floor``, so when
    ``floor`` sits at least :data:`PRESCREEN_MARGIN` under the k-th best
    *exact* candidate score no dropped row can tie or beat the top-k.
    Otherwise one more pass collects every row within the margin of that
    k-th score — any row that can still matter — at a fixed floor.
    Returns ``(ids, scores, rescanned)``.
    """
    rescanned = False
    if 0 < len(candidates) < len(normalized):
        exact = stable_dot_scores(normalized[candidates], qvec)
        kth = np.sort(exact)[::-1][min(condition.k, len(exact)) - 1]
        if floor > kth - PRESCREEN_MARGIN:
            candidates = rows_above(normalized, qvec, kth - PRESCREEN_MARGIN)
            rescanned = True
    ids, scores = exact_topk_select(
        normalized,
        candidates,
        qvec,
        condition.k,
        min_similarity=condition.min_similarity,
    )
    return ids, scores, rescanned


def eselect(
    relation,
    query,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    assume_normalized: bool = False,
) -> SelectionResult:
    """Scan-based E-selection: exact, expression-flexible.

    Args:
        relation: ``(n, d)`` embeddings or raw items (prefetch-embedded).
        query: a query vector or raw item.
        condition: threshold (``cos >= t``) or top-k condition.
        assume_normalized: skip row normalization when the relation is
            already unit-normalized (e.g. a context-cached normalized
            matrix shared across queries).
    """
    validate_condition(condition)
    stats = JoinStats(strategy="eselect/scan")
    start = time.perf_counter()
    matrix = _as_matrix(relation, model, stats)
    stats.n_left = len(matrix)
    qvec = _query_vector(query, model, stats)
    if matrix.shape[1] != qvec.shape[0]:
        raise DimensionalityError(
            f"relation dim {matrix.shape[1]} != query dim {qvec.shape[0]}"
        )
    normalized = matrix if assume_normalized else normalize_rows(matrix)
    n = len(normalized)
    stats.similarity_evaluations = n

    if isinstance(condition, ThresholdCondition):
        candidates = rows_above(
            normalized, qvec, condition.threshold - PRESCREEN_MARGIN
        )
        ids, scores = exact_threshold_select(
            normalized, candidates, qvec, condition.threshold
        )
    else:
        assert isinstance(condition, TopKCondition)
        kpad = min(n, condition.k + TOPK_PRESCREEN_PAD)
        scan = scan_candidates(
            dense_score_block(normalized, qvec[None, :]),
            0, n, 1, (0,), kpad, (), (),
        )
        (candidates,), (floor,) = merge_topk([scan.triples], 1, kpad)
        ids, scores, _ = guarded_topk_select(
            normalized, candidates, float(floor), qvec, condition
        )
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(ids)
    return SelectionResult(ids, scores, stats)
