"""Vector normalization utilities.

Cosine similarity over unit-normalized vectors is a plain dot product
(paper Section IV-C); the tensor join therefore normalizes inputs once and
runs GEMM.  These helpers centralise that normalization and guard against
zero vectors.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionalityError

#: Norm below which a vector is treated as zero (cannot be normalized).
ZERO_NORM_EPS = 1e-12


def l2_norms(matrix: np.ndarray) -> np.ndarray:
    """Row-wise L2 norms of a ``(n, d)`` matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionalityError(f"expected 2-D matrix, got ndim={matrix.ndim}")
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def normalize_rows(matrix: np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Unit-normalize each row; zero rows are left as zeros.

    Leaving zero rows as zeros (rather than raising) matches similarity
    semantics: a zero embedding has similarity 0 with everything.
    """
    matrix = np.array(matrix, dtype=np.float32, copy=copy)
    norms = l2_norms(matrix)
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
