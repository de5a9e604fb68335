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


class StreamingTopK:
    """Bounded streaming top-k merge over dense candidate batches.

    Holds at most ``k`` ``(right_id, score)`` candidates per left row and
    folds each incoming ``(n_rows, m)`` candidate batch into that state
    immediately — the bounded merge heap of the serving scans (coalescer,
    shard workers and their front-door merge), kept in NumPy arrays so the
    merge itself is vectorized.  The join operators reduce whole score
    blocks with :class:`repro.vector.select.TopKReducer` instead, which
    keeps the same ``(score desc, id asc)`` order.

    Candidates arriving earlier win score ties (matching a full-matrix
    ``top_k_per_row`` when batches stream in ascending right-id order).
    """

    def __init__(self, n_rows: int, k: int) -> None:
        if n_rows < 0:
            raise DimensionalityError(f"n_rows must be >= 0, got {n_rows}")
        if k < 1:
            raise DimensionalityError(f"k must be >= 1, got {k}")
        self.n_rows = n_rows
        self.k = k
        self._ids: np.ndarray | None = None
        self._scores: np.ndarray | None = None

    def update(self, ids: np.ndarray, scores: np.ndarray) -> None:
        """Fold a candidate batch ``(n_rows, m)`` into the running top-k."""
        ids = np.asarray(ids)
        scores = np.asarray(scores)
        if ids.shape != scores.shape or ids.ndim != 2:
            raise DimensionalityError(
                f"candidate shapes must match and be 2-D, got {ids.shape} "
                f"and {scores.shape}"
            )
        if ids.shape[0] != self.n_rows:
            raise DimensionalityError(
                f"expected {self.n_rows} rows, got {ids.shape[0]}"
            )
        if ids.shape[1] > self.k:
            keep = top_k_per_row(scores, self.k)
            ids = np.take_along_axis(ids, keep, axis=1)
            scores = np.take_along_axis(scores, keep, axis=1)
        if self._ids is None:
            self._ids = ids.astype(np.int64, copy=True)
            self._scores = scores.astype(np.float32, copy=True)
            return
        merged_ids = np.concatenate([self._ids, ids.astype(np.int64)], axis=1)
        merged_scores = np.concatenate(
            [self._scores, scores.astype(np.float32)], axis=1
        )
        keep = top_k_per_row(merged_scores, self.k)
        self._ids = np.take_along_axis(merged_ids, keep, axis=1)
        self._scores = np.take_along_axis(merged_scores, keep, axis=1)

    @property
    def width(self) -> int:
        """Current number of retained candidates per row (``<= k``)."""
        return 0 if self._ids is None else self._ids.shape[1]

    def merge(self, other: "StreamingTopK") -> "StreamingTopK":
        """Fold another heap's state into this one; returns ``self``.

        Shard workers build independent heaps over disjoint right-id
        ranges; the front door merges them in whatever order replies
        arrive.  Arrival order must therefore not affect the result, so
        the merge re-sorts the union by ``(score desc, id asc)`` per row
        and keeps the first ``k`` — an associative, commutative rule.
        It also reproduces serial tie-breaks exactly: a serial pass over
        ascending right-id blocks keeps the earliest (smallest-id)
        candidate of any score tie, which is precisely ``id asc``.
        """
        if other.n_rows != self.n_rows:
            raise DimensionalityError(
                f"cannot merge heaps over {other.n_rows} rows into "
                f"{self.n_rows} rows"
            )
        if other._ids is None or other._scores is None:
            return self
        if self._ids is None or self._scores is None:
            all_ids = other._ids.astype(np.int64)
            all_scores = other._scores.astype(np.float32)
        else:
            all_ids = np.concatenate(
                [self._ids, other._ids.astype(np.int64)], axis=1
            )
            all_scores = np.concatenate(
                [self._scores, other._scores.astype(np.float32)], axis=1
            )
        # lexsort keys are least-significant first: primary score desc,
        # secondary id asc — a total order, so duplicate-score candidates
        # from different shards land identically regardless of merge order.
        order = np.lexsort((all_ids, -all_scores), axis=1)
        keep = order[:, : self.k]
        self._ids = np.take_along_axis(all_ids, keep, axis=1).astype(
            np.int64, copy=True
        )
        self._scores = np.take_along_axis(all_scores, keep, axis=1).astype(
            np.float32, copy=True
        )
        return self

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, scores)`` of shape ``(n_rows, <=k)``, best first."""
        if self._ids is None or self._scores is None:
            return (
                np.empty((self.n_rows, 0), dtype=np.int64),
                np.empty((self.n_rows, 0), dtype=np.float32),
            )
        return self._ids, self._scores
