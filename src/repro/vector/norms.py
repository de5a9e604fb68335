"""Vector normalization utilities.

Cosine similarity over unit-normalized vectors is a plain dot product
(paper Section IV-C); the tensor join therefore normalizes inputs once and
runs GEMM.  These helpers centralise that normalization and guard against
zero vectors.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionalityError, JoinError

#: Norm below which a vector is treated as zero (cannot be normalized).
ZERO_NORM_EPS = 1e-12


def l2_norms(matrix: np.ndarray) -> np.ndarray:
    """Row-wise L2 norms of a ``(n, d)`` matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionalityError(f"expected 2-D matrix, got ndim={matrix.ndim}")
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def finite_norms(matrix: np.ndarray) -> np.ndarray:
    """:func:`l2_norms`, rejecting a row whose norm is not finite.

    The front door of every scan: a NaN or infinite cell would take a
    reducer slot, poison a quantizer's fitted range or blank a whole
    selection, silently.  Such a row's norm is not finite either, so the
    check is a pass over ``n`` norms, not a second one over the matrix.
    """
    norms = l2_norms(matrix)
    if not np.isfinite(norms).all():
        bad = np.flatnonzero(~np.isfinite(norms))
        raise JoinError(
            f"{len(bad)} row(s) hold a non-finite value (first: row {bad[0]})"
        )
    return norms


def normalize_rows(matrix: np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Unit-normalize each row; zero rows are left as zeros.

    Leaving zero rows as zeros (rather than raising) matches similarity
    semantics: a zero embedding has similarity 0 with everything.  A row
    with a NaN or infinite cell has no similarity to anything and raises
    :class:`~repro.errors.JoinError` (:func:`finite_norms`).
    """
    matrix = np.array(matrix, dtype=np.float32, copy=copy)
    norms = finite_norms(matrix)
    safe = np.where(norms < ZERO_NORM_EPS, 1.0, norms)
    matrix /= safe[:, None].astype(np.float32)
    matrix[norms < ZERO_NORM_EPS] = 0.0
    return matrix


def normalize_vector(vec: np.ndarray) -> np.ndarray:
    """Unit-normalize a single vector (zero stays zero)."""
    vec = np.asarray(vec, dtype=np.float32)
    if vec.ndim != 1:
        raise DimensionalityError(f"expected 1-D vector, got ndim={vec.ndim}")
    norm = float(np.sqrt(vec @ vec))
    if norm < ZERO_NORM_EPS:
        return np.zeros_like(vec)
    return vec / np.float32(norm)
