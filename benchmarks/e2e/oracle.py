"""Reference results from NumPy float64 alone (no ``repro`` import).

Cosine similarity is recomputed from the raw inputs in float64 with a full
sort; a returned id counts as a hit when its reference score reaches the
reference k-th best score (top-k: exact ties at the boundary are all
accepted) or the threshold.  Nothing else is tolerated: a result that
returns more rows than the condition allows, or a row whose reference score
misses the threshold by more than fp32 rounding, is a failed operation.
"""

from __future__ import annotations

import numpy as np

#: Largest float64 block the oracle materialises (rows x rows doubles).
_BLOCK_CELLS = 4_000_000

#: A threshold result row may sit this far under the threshold in float64
#: and still be legitimate: the program compares fp32 scores.
FP32_SLACK = 1e-5


def unit64(vectors: np.ndarray) -> np.ndarray:
    """Rows normalised in float64 (zero rows stay zero)."""
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms > 0)


def scores64(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All-pairs float64 cosine of ``left`` rows against ``right`` rows.

    ``right`` is consumed in blocks so a 150,000-row corpus never needs a
    float64 copy of itself.
    """
    left_u = unit64(np.atleast_2d(left))
    out = np.empty((len(left_u), len(right)), dtype=np.float64)
    step = max(1, _BLOCK_CELLS // max(right.shape[1], 1))
    for lo in range(0, len(right), step):
        out[:, lo : lo + step] = left_u @ unit64(right[lo : lo + step]).T
    return out


def _row_recall(scores: np.ndarray, returned: np.ndarray, k, threshold):
    """(hits, expected, valid) for one left row's returned right ids."""
    returned = np.unique(returned)
    if k is not None:
        k = min(k, len(scores))
        kth = np.sort(scores)[-k]
        hits = int((scores[returned] >= kth).sum())
        return min(hits, k), k, len(returned) <= k
    expected = int((scores >= threshold).sum())
    got = scores[returned]
    valid = bool((got >= threshold - FP32_SLACK).all())
    return int((got >= threshold).sum()), expected, valid


def join_recall(
    left: np.ndarray,
    right: np.ndarray,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    rows: np.ndarray,
    *,
    k: int | None = None,
    threshold: float | None = None,
) -> tuple[float, bool]:
    """Recall of a join result on the sampled left ``rows``.

    ``left_ids``/``right_ids`` are the returned offset pairs.  Returns
    ``(recall, valid)``; rows whose reference set is empty count as recall
    1 when nothing was returned for them and 0 otherwise.
    """
    scores = scores64(left[rows], right)
    order = np.argsort(left_ids, kind="stable")
    sorted_left = left_ids[order]
    recalls, valid = [], True
    for pos, row in enumerate(rows):
        lo, hi = np.searchsorted(sorted_left, [row, row + 1])
        returned = right_ids[order[lo:hi]]
        hits, expected, ok = _row_recall(scores[pos], returned, k, threshold)
        valid &= ok
        recalls.append(hits / expected if expected else float(len(returned) == 0))
    return float(np.mean(recalls)), valid


def select_recall(
    corpus: np.ndarray,
    queries: np.ndarray,
    returned_ids: list[np.ndarray],
    *,
    ks: list[int | None],
    thresholds: list[float | None],
) -> tuple[list[float], bool]:
    """Per-query recall of E-selection results against the whole corpus."""
    scores = scores64(queries, corpus)
    recalls, valid = [], True
    for row, returned in enumerate(returned_ids):
        hits, expected, ok = _row_recall(
            scores[row], np.asarray(returned, dtype=np.int64), ks[row], thresholds[row]
        )
        valid &= ok
        recalls.append(hits / expected if expected else float(len(returned) == 0))
    return recalls, valid
