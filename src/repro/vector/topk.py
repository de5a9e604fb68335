"""Top-k selection over similarity scores."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionalityError


def top_k_indices(scores: np.ndarray, k: int, *, descending: bool = True) -> np.ndarray:
    """Indices of the ``k`` best scores, best-first, ties broken by index.

    Uses ``argpartition`` for O(n + k log k) selection, matching how a
    vector index's top-k retrieval behaves (paper Section VI-E requires a
    mandatory top-k for the index-based join).
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise DimensionalityError(f"expected 1-D scores, got ndim={scores.ndim}")
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = scores.shape[0]
    k = min(k, n)
    keyed = -scores if descending else scores
    if k < n:
        # argpartition alone breaks boundary ties arbitrarily; for a
        # deterministic result (ties broken by smallest index) include all
        # strictly-better entries, then fill from the tied entries in index
        # order.
        kth_value = np.partition(keyed, k - 1)[k - 1]
        strictly = np.nonzero(keyed < kth_value)[0]
        ties = np.nonzero(keyed == kth_value)[0]
        part = np.concatenate([strictly, ties[: k - len(strictly)]])
    else:
        part = np.arange(n)
    # Stable best-first ordering with deterministic tie-breaks.
    order = np.lexsort((part, keyed[part]))
    return part[order].astype(np.int64)


def top_k_per_row(
    score_matrix: np.ndarray, k: int, *, descending: bool = True
) -> np.ndarray:
    """Row-wise top-k indices of an ``(n, m)`` score matrix → ``(n, k)``.

    If ``m < k`` the result has ``m`` columns.
    """
    score_matrix = np.asarray(score_matrix)
    if score_matrix.ndim != 2:
        raise DimensionalityError(
            f"expected 2-D scores, got ndim={score_matrix.ndim}"
        )
    n, m = score_matrix.shape
    k = min(k, m)
    if k <= 0 or n == 0:
        return np.empty((n, 0), dtype=np.int64)
    keyed = -score_matrix if descending else score_matrix
    if k == m:
        order = np.argsort(keyed, axis=1, kind="stable")
        return order[:, :k].astype(np.int64)
    # Fast path: argpartition selects k candidates per row in O(m); ties at
    # the k-th value may be broken arbitrarily, so rows whose boundary tie
    # extends beyond the selection are repaired with the deterministic 1-D
    # routine (ties broken by smallest index) — keeping block-merge results
    # independent of batch shape without paying a full row sort.
    part = np.argpartition(keyed, k - 1, axis=1)[:, :k]
    part_keys = np.take_along_axis(keyed, part, axis=1)
    kth = part_keys.max(axis=1, keepdims=True)
    tied_total = (keyed == kth).sum(axis=1)
    tied_selected = (part_keys == kth).sum(axis=1)
    ambiguous = np.nonzero(tied_total > tied_selected)[0]
    order = np.lexsort((part, part_keys), axis=1)
    out = np.take_along_axis(part, order, axis=1).astype(np.int64)
    for row in ambiguous:
        out[row] = top_k_indices(score_matrix[row], k, descending=descending)
    return out
