"""Cosine-similarity compute kernels: the physical-optimization knob.

The paper contrasts scalar C++ loops with AVX-SIMD kernels (Section V-A-3,
Figures 8-9).  In this Python reproduction the same contrast is expressed
as:

* ``SCALAR`` ("NO-SIMD"): a pure-Python per-element loop — one interpreted
  multiply-add per float, the analogue of unvectorized scalar code.
* ``VECTORIZED`` ("SIMD"): NumPy array expressions that dispatch to
  compiled, hardware-vectorized loops.
* ``GEMM``: BLAS matrix-matrix multiplication, used by the tensor join.

All kernels compute the same mathematical result; tests assert their
equivalence, benchmarks their performance ordering.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ..errors import DimensionalityError
from ..reliability.faults import maybe_inject
from .norms import ZERO_NORM_EPS


class Kernel(enum.Enum):
    """Available cosine computation strategies."""

    SCALAR = "scalar"        # pure-Python loops ("NO-SIMD")
    VECTORIZED = "vectorized"  # NumPy elementwise ("SIMD")
    GEMM = "gemm"            # BLAS matrix multiply (tensor formulation)


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionalityError(
            f"expected 1-D vectors, got ndim={a.ndim} and ndim={b.ndim}"
        )
    if a.shape[0] != b.shape[0]:
        raise DimensionalityError(
            f"dimensionality mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def cosine_scalar(a: np.ndarray, b: np.ndarray) -> float:
    """Pure-Python cosine similarity between two vectors."""
    _check_pair(a, b)
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        dot += x * y
        na += x * x
        nb += y * y
    denom = math.sqrt(na) * math.sqrt(nb)
    if denom < ZERO_NORM_EPS:
        return 0.0
    return dot / denom


def cosine_matrix_vectorized(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All-pairs cosine via row-at-a-time NumPy expressions.

    This models the paper's SIMD NLJ: the outer loops stay (per-tuple
    processing), but each inner similarity is a hardware-vectorized kernel.
    One side is processed a vector at a time, so there is no GEMM-level
    batching — that is the tensor join's contribution (Figure 12's
    "non-batched" series).
    """
    left = np.asarray(left, dtype=np.float32)
    right = np.asarray(right, dtype=np.float32)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
        raise DimensionalityError(
            f"incompatible shapes {left.shape} x {right.shape}"
        )
    right_norms = np.sqrt(np.einsum("ij,ij->i", right, right))
    right_norms = np.where(right_norms < ZERO_NORM_EPS, 1.0, right_norms)
    out = np.empty((left.shape[0], right.shape[0]), dtype=np.float32)
    for i in range(left.shape[0]):
        row = left[i]
        rn = float(np.linalg.norm(row))
        if rn < ZERO_NORM_EPS:
            out[i, :] = 0.0
            continue
        out[i, :] = (right @ row) / (right_norms * rn)
    return out


def cosine_matrix_gemm(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All-pairs cosine via one BLAS GEMM (the tensor formulation).

    Normalizes both operands and computes ``L @ R.T`` — exactly the matrix
    formulation of Figure 6.
    """
    from .norms import normalize_rows  # local import avoids cycle at module load

    left_n = normalize_rows(left)
    right_n = normalize_rows(right)
    if left_n.shape[1] != right_n.shape[1]:
        raise DimensionalityError(
            f"incompatible shapes {left_n.shape} x {right_n.shape}"
        )
    return left_n @ right_n.T


def row_major_scores(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``(n_queries, len(block))`` scores of fp32 ``block`` rows, copy-free.

    The product runs row-major — ``block @ queries.T``, a plain GEMV for
    one query — because OpenBLAS streams a tall operand about twice as
    fast from the left as transposed on the right; the returned
    query-major array is a view of it.
    """
    if len(queries) == 1:
        return (block @ queries[0])[None, :]
    return (block @ queries.T).T


def stable_dot_scores(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Shape-stable exact dot products of ``rows`` against ``vec``.

    BLAS kernels pick shape-dependent micro-kernels, so the same logical
    dot product comes out with different last-ulp roundings depending on
    how many rows/columns share the call — which breaks any contract that
    demands identical scores from different access paths (e.g. a serial
    scan vs a cross-query shared scan).  This kernel defines the scoring
    contract instead: each row's score is the float64 elementwise product
    pairwise-summed along the row, cast back to fp32.  The reduction is
    per-row independent and depends only on the dimensionality, so the
    result is bit-identical no matter how the rows were batched, gathered,
    or blocked.  O(len(rows) * d) — intended for the sparse set of rows an
    approximate prescreen already selected, not for full scans.
    """
    maybe_inject("kernel.rescore")
    rows = np.asarray(rows)
    vec = np.asarray(vec)
    if rows.ndim != 2 or vec.ndim != 1 or rows.shape[1] != vec.shape[0]:
        raise DimensionalityError(
            f"incompatible shapes {rows.shape} x {vec.shape}"
        )
    products = np.ascontiguousarray(rows, dtype=np.float64) * vec.astype(
        np.float64
    )
    return products.sum(axis=1).astype(np.float32)
