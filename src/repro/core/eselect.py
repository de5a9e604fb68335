"""Context-enhanced selection: sigma_{E,mu,theta}(R) (Section III-C).

The selection counterpart of the E-join: given a relation of context-rich
items (or their embeddings) and a *query* item, return the tuples whose
similarity to the query satisfies theta.  Its cost is the paper's
E-Selection Cost equation, ``|R| * (A + M + C)`` — linear, with the model
term removable by prefetching exactly as in the join.

:func:`eselect` is scan-based and exact under any condition.  It runs as
**prescreen + exact rescore**: a fast BLAS pass produces approximate scores
whose only job is to select a provable candidate superset — over every
row, or only the rows a cap partition's bounds keep
(:func:`~repro.core.caps.cap_join`) — and the
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
from .caps import CapPartition, cap_join
from .nlj import _as_matrix
from .result import JoinStats
from .scan import (
    PRESCREEN_MARGIN,
    TOPK_PRESCREEN_PAD,
    ScanResult,
    dense_score_block,
    merge_topk,
    prove_topk,
    scan_candidates,
    split_rows,
)


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
    ascending), then cut at ``min_similarity`` — are one once
    :func:`~repro.core.scan.prove_topk` proves them: every row the
    prescreen dropped scores ``<= floor`` approximately (``-inf``: none
    was dropped), and the fp32 scan's bound is zero, so with ``floor`` a
    margin under the k-th best exact candidate score no dropped row can
    tie or beat the top-k.  Otherwise one fixed-floor pass collects every
    row within the margin of that score.  Returns ``(ids, scores,
    rescanned)``.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if isinstance(condition, ThresholdCondition):
        exact = stable_dot_scores(normalized[candidates], qvec)
        keep = exact >= condition.threshold
        return candidates[keep], exact[keep], False
    (_, ids, scores), failed, _ = prove_topk(
        np.zeros(len(candidates), dtype=np.intp), candidates,
        np.full(1, floor, dtype=np.float32), condition.k, len(normalized),
        lambda _, ids: stable_dot_scores(normalized[ids], qvec),
        lambda _: (dense_score_block(normalized, qvec[None, :]), None),
    )
    if condition.min_similarity is not None:
        keep = scores >= condition.min_similarity
        ids, scores = ids[keep], scores[keep]
    return ids, scores, len(failed) > 0


class GroupSelection(NamedTuple):
    """One shared prescreen, and the exact selection of each request on it."""

    #: ``select(i) -> (ids, scores, candidates, rescanned)`` of request ``i``.
    select: Callable[[int], tuple[np.ndarray, np.ndarray, int, bool]]
    unique: int  # distinct query vectors: rows of the stacked scan operand
    blocks: int
    cells: int  # score cells the prescreen computed (cap centres included)
    prescreen: str  # "caps" or "dense"
    probe: str  # the caps' probe order ("rows", "caps" or both); "dense" off them
    fanned: object | None  # what ``scan=`` answered (``None``: in process)


def _cap_prescreen(
    part: CapPartition, queries: np.ndarray, topk_rows, kpad: int, thr_rows, floors,
    allowance: float,
) -> ScanResult | None:
    """What the dense pass would find, from the caps: each top-k row's
    ``kpad`` best cells, each threshold row's cells over its floor — or
    ``None`` if either :func:`~repro.core.caps.cap_join` declines.  A cell
    the caps drop scores exactly under its row's floor less
    :data:`PRESCREEN_MARGIN`, so :func:`exact_select` proves on these
    candidates what it proves on the dense pass's."""
    empty = np.empty(0, dtype=np.int64)
    none = (empty, empty, np.empty(0, dtype=np.float32))
    top = thr = ScanResult(none, none)
    if topk_rows:
        top = cap_join(part, TopKCondition(kpad), queries[topk_rows], allowance)
    if thr_rows and top is not None:
        thr = cap_join(part, floors, queries[thr_rows], allowance)
    if top is None or thr is None:
        return None
    return ScanResult(
        top.triples, thr.hits, blocks=top.blocks + thr.blocks, cells=top.cells + thr.cells,
        peak_bytes=max(top.peak_bytes, thr.peak_bytes),
        probe="+".join(sorted({top.probe, thr.probe} - {""})),
    )


def select_group(
    normalized: np.ndarray,
    qvecs,
    conditions,
    *,
    scan: Callable | None = None,
    budget_bytes: int | None = None,
    caps: CapPartition | None = None,
) -> GroupSelection:
    """Exact E-selections of a group of requests over one scan of
    ``normalized`` — everything that makes a served selection exact.

    Request ``i`` is the unit query ``qvecs[i]`` under ``conditions[i]``.
    Equal vectors share a scan row (which may then need both top-k
    candidates and threshold hits), the relation streams once for the
    group — or only the rows its cap partition keeps — and
    :func:`exact_select` finalizes each request on its row's candidates,
    so no answer depends on who shared the scan or how it was prescreened.
    :func:`eselect` is a group of one.

    Args:
        scan: a drop-in for the in-process pass, called like
            :meth:`repro.shard.ShardPool.scan_candidates` without its key
            and answering like it; ``None`` from it declines.
        budget_bytes: cap on one score block of the in-process pass, and
            on the bound state of the caps'.
        caps: the cap partition of ``normalized``
            (:func:`~repro.core.caps.build_caps`); the group prescreens on
            it before ``scan``, and runs the dense pass if it declines.
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

    found = fanned = None
    if caps is not None:
        allowance = np.inf if budget_bytes is None else budget_bytes
        found = _cap_prescreen(caps, queries, topk_rows, kpad, thr_rows, floors, allowance)
    prescreen, probe = ("dense", "dense") if found is None else ("caps", found.probe)
    if found is None and scan is not None:
        fanned = scan(
            queries, n_rows=n, topk_rows=topk_rows, kpad=kpad,
            thr_rows=thr_rows, thr_floors=floors,
        )
    if fanned is not None:
        cand_ids, cand_floor = fanned.heap_ids, fanned.heap_floor
        thr_hits, blocks, cells = fanned.thr_hits, fanned.blocks, len(queries) * n
    else:
        if found is None:
            found = scan_candidates(
                dense_score_block(normalized, queries),
                0, n, len(queries), topk_rows, kpad, thr_rows, floors,
                budget_bytes=budget_bytes,
            )
        cand_ids, cand_floor = merge_topk([found.triples], len(topk_rows), kpad)
        thr_hits = split_rows(found.hits[0], found.hits[1], len(thr_rows))
        blocks, cells = found.blocks, found.cells
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

    return GroupSelection(select, len(queries), blocks, cells, prescreen, probe, fanned)


def eselect(
    relation,
    query,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    assume_normalized: bool = False,
    caps: CapPartition | None = None,
) -> SelectionResult:
    """Scan-based E-selection: exact, expression-flexible.

    Args:
        relation: ``(n, d)`` embeddings or raw items (prefetch-embedded).
        query: a query vector or raw item.
        condition: threshold (``cos >= t``) or top-k condition.
        assume_normalized: skip row normalization when the relation is
            already unit-normalized (e.g. a context-cached normalized
            matrix shared across queries).
        caps: the cap partition of the unit rows to prescreen on
            (:func:`select_group`'s).
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
    group = select_group(normalized, [qvec], [condition], caps=caps)
    ids, scores, _, _ = group.select(0)
    stats.similarity_evaluations = group.cells
    stats.extra["prescreen"], stats.extra["probe"] = group.prescreen, group.probe
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(ids)
    return SelectionResult(ids, scores, stats)
