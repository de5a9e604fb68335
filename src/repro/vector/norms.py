"""Vector normalization utilities.

Cosine similarity over unit-normalized vectors is a plain dot product
(paper Section IV-C); the tensor join therefore normalizes inputs once and
runs GEMM.  These helpers centralise that normalization and guard against
zero vectors, non-finite cells and fp32 overflow of a finite row's squared
norm.
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
    """:func:`l2_norms`, rejecting a row that holds a NaN or infinite cell.

    The front door of every scan: a NaN or infinite cell would take a
    reducer slot, poison a quantizer's fitted range or blank a whole
    selection, silently.  Such a row's norm is not finite either, so the
    check is a pass over ``n`` norms, not a second one over the matrix;
    only a row whose norm is not finite has its cells looked at.  A row
    of finite cells whose squared norm overflows fp32 keeps its infinite
    norm (:func:`normalize_rows` scales it down first).
    """
    norms = l2_norms(matrix)
    if not np.isfinite(norms).all():
        rows = np.flatnonzero(~np.isfinite(norms))
        bad = rows[~np.isfinite(matrix[rows]).all(axis=1)]
        if len(bad):
            raise JoinError(
                f"{len(bad)} row(s) hold a non-finite value (first: row {bad[0]})"
            )
    return norms


def _scaled_down(rows: np.ndarray) -> np.ndarray:
    """``rows`` (2-D, every cell finite), each times the power of two that
    brings its largest magnitude into [0.5, 1).

    Exact, so the normalized row keeps the bits of the unscaled one: the
    squared norm of a row whose magnitude overflows fp32 (above ~1.8e19)
    no longer does.
    """
    _, exponent = np.frexp(np.abs(rows).max(axis=1))
    return np.ldexp(rows, -exponent[:, None])


def normalize_rows(matrix: np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Unit-normalize each row; zero rows are left as zeros.

    Leaving zero rows as zeros (rather than raising) matches similarity
    semantics: a zero embedding has similarity 0 with everything.  A row
    with a NaN or infinite cell has no similarity to anything and raises
    :class:`~repro.errors.JoinError` (:func:`finite_norms`); a finite row
    too large to square in fp32 is scaled down by a power of two first.
    """
    matrix = np.array(matrix, dtype=np.float32, copy=copy)
    norms = finite_norms(matrix)
    overflowed = np.isinf(norms)
    if overflowed.any():
        matrix[overflowed] = _scaled_down(matrix[overflowed])
        norms[overflowed] = l2_norms(matrix[overflowed])
    safe = np.where(norms < ZERO_NORM_EPS, 1.0, norms)
    matrix /= safe[:, None].astype(np.float32)
    matrix[norms < ZERO_NORM_EPS] = 0.0
    return matrix


def normalize_vector(vec: np.ndarray) -> np.ndarray:
    """Unit-normalize a single vector (zero stays zero); a finite vector
    too large to square in fp32 is scaled down by a power of two first."""
    vec = np.asarray(vec, dtype=np.float32)
    if vec.ndim != 1:
        raise DimensionalityError(f"expected 1-D vector, got ndim={vec.ndim}")
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(vec @ vec))
    if norm == np.inf and np.isfinite(vec).all():
        vec = _scaled_down(vec[None])[0]
        norm = float(np.sqrt(vec @ vec))
    if norm < ZERO_NORM_EPS:
        return np.zeros_like(vec)
    return vec / np.float32(norm)
