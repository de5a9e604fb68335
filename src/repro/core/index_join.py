"""Index-probe E-join (Sections IV-B, VI-E; Figures 15-17).

The join is implemented as **batched index probes**: each left tuple's
vector probes a vector index built over the right relation, exactly how the
paper drives Milvus ("batching many search queries would be equivalent to a
join operation").  Two consequences the paper highlights, both preserved:

* an index-based join **must** specify top-k — a pure range condition is
  emulated by retrieving top-``probe_k`` and post-filtering by threshold
  (this is why Figure 17's index series degrades),
* relational selectivity arrives as a **pre-filter bitmap**: disallowed ids
  are excluded from results on the fly while graph traversal cost is still
  paid.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import partition_rows
from ..errors import DimensionalityError, JoinError
from ..index.base import VectorIndex
from ..vector.norms import normalize_rows
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .nlj import _as_matrix
from .result import JoinResult, JoinStats

#: Default retrieval depth when emulating a range condition on an index
#: (Figure 17 uses k=32 retrieval under a similarity>0.9 filter).
DEFAULT_PROBE_K = 32


def _probe_plan(condition: JoinCondition, probe_k: int | None) -> tuple[int, float | None]:
    """Translate a join condition into (k, post_threshold) for the index."""
    if isinstance(condition, TopKCondition):
        return condition.k, condition.min_similarity
    assert isinstance(condition, ThresholdCondition)
    k = DEFAULT_PROBE_K if probe_k is None else probe_k
    if k < 1:
        raise JoinError(f"probe_k must be >= 1, got {k}")
    return k, condition.threshold


def _probe_rows(
    left_n: np.ndarray,
    index: VectorIndex,
    k: int,
    post_threshold: float | None,
    allowed: np.ndarray | None,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe the index with left rows ``[lo, hi)`` as one batch.

    ``search_batch`` carries the ``index.probe`` fault site: a retried
    span re-probes the (read-only) index from scratch and lands on
    identical ids/scores.  Probe rows were normalized once by the caller.
    """
    found = index.search_batch(
        left_n[lo:hi], k, allowed=allowed, assume_normalized=True
    )
    li = np.repeat(np.arange(lo, hi, dtype=np.int64), [len(f) for f in found])
    ri = np.concatenate([f.ids for f in found]).astype(np.int64, copy=False)
    sc = np.concatenate([f.scores for f in found]).astype(np.float32, copy=False)
    if post_threshold is not None:
        keep = sc >= post_threshold
        li, ri, sc = li[keep], ri[keep], sc[keep]
    return li, ri, sc


def index_join(
    left,
    index: VectorIndex,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    allowed: np.ndarray | None = None,
    probe_k: int | None = None,
    engine=None,
) -> JoinResult:
    """Join left vectors against an index built over the right relation.

    Args:
        left: ``(n, d)`` probe vectors or raw items with ``model``.
        index: a built :class:`~repro.index.base.VectorIndex` whose stored
            ids correspond to right-relation row offsets.
        condition: threshold (emulated via top-``probe_k`` + post-filter) or
            top-k condition.
        allowed: optional pre-filter bitmap over right ids (relational
            selection pushed down to the index probe).
        probe_k: retrieval depth for threshold conditions.
        engine: optional :class:`repro.engine.ExecutionEngine`; the probe
            batch is split evenly across its workers (the index is only
            read, and results reassemble in probe order).

    Returns:
        Offset-pair :class:`JoinResult`.  Approximate: recall depends on the
        index's build-time parameters (Lo/Hi in the paper).
    """
    validate_condition(condition)
    stats = JoinStats(strategy=f"index/{type(index).__name__.lower()}")
    start = time.perf_counter()

    left_m = _as_matrix(left, model, stats)
    if left_m.shape[1] != index.dim:
        raise DimensionalityError(
            f"probe dim {left_m.shape[1]} != index dim {index.dim}"
        )
    stats.n_left = len(left_m)
    stats.n_right = len(index)
    k, post_threshold = _probe_plan(condition, probe_k)

    left_n = normalize_rows(left_m)
    probes_before = index.stats.distance_computations

    # One probe batch per worker: a batched probe pays a fixed cost per
    # call (per inverted list, for IVF), so spans are as large as the
    # engine's parallelism allows.
    parallel = engine is not None and engine.n_threads > 1
    tasks = [
        lambda lo=lo, hi=hi: _probe_rows(
            left_n, index, k, post_threshold, allowed, lo, hi
        )
        for lo, hi in partition_rows(
            stats.n_left, engine.n_threads if parallel else 1
        )
    ]
    parts = engine.run(tasks) if parallel else [task() for task in tasks]

    stats.similarity_evaluations = (
        index.stats.distance_computations - probes_before
    )
    stats.extra["probe_k"] = k
    if not parts:
        result = JoinResult.empty(stats)
    else:
        result = JoinResult(*(np.concatenate(c) for c in zip(*parts)), stats)
    stats.seconds = time.perf_counter() - start
    return result
