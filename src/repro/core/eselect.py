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
from collections.abc import Callable
from typing import NamedTuple

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
from .scan import dense_score_block, merge_topk, scan_candidates, split_rows

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


def _as_query(query) -> np.ndarray:
    """A query vector as fp32: one dimension, every value finite."""
    query = np.asarray(query, dtype=np.float32)
    if query.ndim != 1:
        raise DimensionalityError(
            f"query must be a 1-D vector, got ndim={query.ndim}"
        )
    if not np.isfinite(query).all():
        raise JoinError("the query vector holds a non-finite value")
    return query


def _query_vector(query, model: EmbeddingModel | None, stats: JoinStats) -> np.ndarray:
    if isinstance(query, np.ndarray):
        return normalize_vector(_as_query(query))
    if model is None:
        raise JoinError("a raw query item requires an embedding model")
    stats.model_calls += 1
    # Unit-normalize unconditionally: downstream probes assume unit rows
    # (models normalize by default, but it is optional).
    return normalize_vector(model.embed(query))


def exact_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    condition: JoinCondition,
    floor: float = -np.inf,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The exact finalizer of every served scan: score a prescreened
    candidate set once, select, and prove the selection — or widen it.

    Scores are :func:`~repro.vector.kernels.stable_dot_scores`', so every
    candidate superset of the answer yields the same ids and scores.  A
    threshold's candidates (approximate score within
    :data:`PRESCREEN_MARGIN` of it) are one by construction and come out
    in ascending-id order.  A top-k's — selected by (score descending, id
    ascending), then cut at ``min_similarity`` — are one if proved: every
    row the prescreen dropped scores ``<= floor`` approximately (``-inf``:
    none was dropped), so with ``floor`` a margin under the k-th best
    exact candidate score no dropped row can tie or beat the top-k.
    Otherwise one fixed-floor pass collects every row within the margin of
    that score.  Returns ``(ids, scores, rescanned)``.
    """
    rescanned = False
    while True:
        candidates = np.asarray(candidates, dtype=np.int64)
        exact = stable_dot_scores(normalized[candidates], qvec)
        if isinstance(condition, ThresholdCondition):
            keep = exact >= condition.threshold
            return candidates[keep], exact[keep], False
        keep = np.lexsort((candidates, -exact))[: condition.k]
        if rescanned or not 0 < len(candidates) < len(normalized):
            break
        bar = exact[keep[-1]] - PRESCREEN_MARGIN
        if floor <= bar:
            break
        candidates = scan_candidates(
            dense_score_block(normalized, qvec[None, :]),
            0, len(normalized), 1, (), 0, (0,), bar,
        ).hits[1]
        rescanned = True
    ids, scores = candidates[keep], exact[keep]
    if condition.min_similarity is not None:
        keep = scores >= condition.min_similarity
        ids, scores = ids[keep], scores[keep]
    return ids, scores, rescanned


class GroupSelection(NamedTuple):
    """One shared prescreen, and the exact selection of each request on it."""

    #: ``select(i) -> (ids, scores, candidates, rescanned)`` of request ``i``.
    select: Callable[[int], tuple[np.ndarray, np.ndarray, int, bool]]
    unique: int  # distinct query vectors: rows of the stacked scan operand
    blocks: int
    fanned: object | None  # what ``scan=`` answered (``None``: in process)


def select_group(
    normalized: np.ndarray,
    qvecs,
    conditions,
    *,
    scan: Callable | None = None,
    budget_bytes: int | None = None,
) -> GroupSelection:
    """Exact E-selections of a group of requests over one scan of
    ``normalized`` — everything that makes a served selection exact.

    Request ``i`` is the unit query ``qvecs[i]`` under ``conditions[i]``.
    Equal vectors share a scan row (which may then need both top-k
    candidates and threshold hits), the relation streams once for the
    group, and :func:`exact_select` finalizes each request on its row's
    candidates — so no answer depends on who shared the scan.
    :func:`eselect` is a group of one.

    Args:
        scan: a drop-in for the in-process pass, called like
            :meth:`repro.shard.ShardPool.scan_candidates` without its key
            and answering like it; ``None`` from it declines.
        budget_bytes: cap on one score block of the in-process pass.
    """
    n = len(normalized)
    row_of: dict[bytes, int] = {}
    urows = [row_of.setdefault(np.asarray(q).tobytes(), len(row_of)) for q in qvecs]
    queries = np.empty((len(row_of), normalized.shape[1]), dtype=np.float32)
    for urow, qvec in zip(urows, qvecs):
        queries[urow] = qvec
    if not np.isfinite(queries).all():
        raise JoinError("a query vector holds a non-finite value")
    kmax = 0
    topk_set: set[int] = set()
    thr_floor: dict[int, float] = {}
    for urow, condition in zip(urows, conditions):
        if isinstance(condition, TopKCondition):
            topk_set.add(urow)
            kmax = max(kmax, condition.k)
        else:
            floor = condition.threshold - PRESCREEN_MARGIN
            thr_floor[urow] = min(thr_floor.get(urow, floor), floor)
    topk_rows, thr_rows = sorted(topk_set), sorted(thr_floor)
    floors = np.asarray([thr_floor[urow] for urow in thr_rows], dtype=np.float32)
    kpad = max(1, min(n, kmax + TOPK_PRESCREEN_PAD))

    fanned = None if scan is None else scan(
        queries, n_rows=n, topk_rows=topk_rows, kpad=kpad,
        thr_rows=thr_rows, thr_floors=floors,
    )
    if fanned is not None:
        cand_ids, cand_floor = fanned.heap_ids, fanned.heap_floor
        thr_hits, blocks = fanned.thr_hits, fanned.blocks
    else:
        found = scan_candidates(
            dense_score_block(normalized, queries),
            0, n, len(queries), topk_rows, kpad, thr_rows, floors,
            budget_bytes=budget_bytes,
        )
        cand_ids, cand_floor = merge_topk([found.triples], len(topk_rows), kpad)
        thr_hits = split_rows(found.hits[0], found.hits[1], len(thr_rows))
        blocks = found.blocks
    topk_of = dict(zip(topk_rows, zip(cand_ids, cand_floor)))
    hits_of = dict(zip(thr_rows, thr_hits))

    def select(i: int):
        if isinstance(conditions[i], TopKCondition):
            candidates, floor = topk_of[urows[i]]
        else:
            candidates, floor = hits_of[urows[i]], -np.inf
        ids, scores, rescanned = exact_select(
            normalized, candidates, queries[urows[i]], conditions[i], float(floor)
        )
        return ids, scores, len(candidates), rescanned

    return GroupSelection(select, len(queries), blocks, fanned)


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
    stats.similarity_evaluations = len(normalized)
    ids, scores, _, _ = select_group(normalized, [qvec], [condition]).select(0)
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(ids)
    return SelectionResult(ids, scores, stats)
