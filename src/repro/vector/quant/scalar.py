"""Int8 scalar quantization: per-dimension min/max affine codes.

Every dimension ``j`` is affinely mapped onto the signed byte range: a code
``c`` reconstructs to ``lo_j + (c + 128) * scale_j`` where ``scale_j``
spans the fitted min/max at 255 steps (Milvus/FAISS ``SQ8``).  Codes cost
``dim`` bytes per vector — a 4x cut in scanned bytes versus fp32.

Scoring is asymmetric: queries stay fp32 and are folded into the affine
map once (:meth:`Int8Quantizer.prepare_queries`), after which a block of
approximate similarities is one BLAS GEMM over the casted code block —
numerically identical to ``q . decode(code)``.  The symmetric
:func:`int8_dot` kernel computes exact int32 code dot products by chunking
the GEMM so every partial sum stays inside the 2^24 integer window of
fp32, where BLAS accumulation is exact.
"""

from __future__ import annotations

import numpy as np

from ...errors import DimensionalityError
from ..kernels import row_major_scores
from .base import VectorQuantizer

#: Smallest per-dimension scale; guards constant dimensions.
MIN_SCALE = 1e-12

#: Query rows up to which the asymmetric scan runs row-major
#: (``codes @ weights.T``): OpenBLAS streams a thin product faster from
#: the tall operand's side.  150,000 x 128 codes in one block, min ms,
#: query-major vs row-major: 2 queries 39.2 vs 31.5, 16 55.7 vs 47.2,
#: 64 74.8 vs 64.0; one query and a join's 125-row blocks tie (31.9 vs
#: 32.9, 114.9 vs 122.3; at 125 x 8,384 3.23 vs 3.11).
THIN_QUERIES = 64

#: Largest dim-chunk whose int8 dot partial sums stay exactly representable
#: in fp32: ``1024 * 128 * 128 < 2**24``.
_EXACT_CHUNK = 1024


class Int8Quantizer(VectorQuantizer):
    """Per-dimension min/max affine int8 quantizer."""

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self.lo: np.ndarray | None = None
        self.scale: np.ndarray | None = None
        self._max_residual = 0.0

    @property
    def bytes_per_code(self) -> int:
        return self.dim

    def fit(self, data: np.ndarray) -> "Int8Quantizer":
        data = self._check_matrix(data)
        if len(data) == 0:
            raise DimensionalityError("cannot fit Int8Quantizer on 0 rows")
        self.lo = data.min(axis=0)
        self.scale = np.maximum((data.max(axis=0) - self.lo) / 255.0, MIN_SCALE)
        self.lo = self.lo.astype(np.float32)
        self.scale = self.scale.astype(np.float32)
        self._fitted = True
        return self

    def encode(self, data: np.ndarray) -> np.ndarray:
        self._require_fitted()
        data = self._check_matrix(data)
        steps = np.rint((data - self.lo) / self.scale) - 128.0
        codes = np.clip(steps, -128, 127).astype(np.int8)
        if len(data):
            # Track actual reconstruction error: encoding rows outside the
            # fitted min/max clips, and the analytic half-step bound no
            # longer covers them — the tracked maximum keeps
            # score_error_bound sound for everything this quantizer has
            # encoded.
            err = self.decode(codes) - data
            norms = np.sqrt(np.einsum("ij,ij->i", err, err))
            self._max_residual = max(self._max_residual, float(norms.max()))
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.dim:
            raise DimensionalityError(
                f"expected (n, {self.dim}) codes, got shape {codes.shape}"
            )
        return (
            self.lo + (codes.astype(np.float32) + 128.0) * self.scale
        ).astype(np.float32)

    def score_error_bound(self) -> float:
        """``|q.x - q.decode(encode(x))| <= ||scale|| / 2`` for unit ``q``.

        Each reconstructed dimension is off by at most ``scale_j / 2``
        (round-to-nearest over in-range data), so the error vector's norm
        is at most ``||scale|| / 2`` and Cauchy-Schwarz bounds the score
        perturbation.  Encoding out-of-range rows (a pre-fitted quantizer
        applied to new data) clips, so the bound also covers the maximum
        reconstruction error actually observed; a small additive slack
        absorbs fp32 GEMM accumulation noise in the asymmetric scoring
        kernel, which the analytic bound alone would not cover when
        scales are tiny.
        """
        self._require_fitted()
        analytic = float(np.linalg.norm(self.scale)) / 2.0
        return max(analytic, self._max_residual) + 1e-5

    # ------------------------------------------------------------------
    # Asymmetric scoring
    # ------------------------------------------------------------------
    def prepare_queries(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold fp32 queries into the affine map: ``(weights, bias)``.

        ``approx = weights @ codes.T + bias[:, None]`` equals
        ``queries @ decode(codes).T`` exactly: the affine offset of every
        dimension contracts with the query into a per-query bias.
        """
        self._require_fitted()
        queries = self._check_matrix(queries)
        weights = queries * self.scale
        bias = queries @ (self.lo + 128.0 * self.scale)
        return weights.astype(np.float32), bias.astype(np.float32)

    def scores_block(
        self,
        prepared: tuple[np.ndarray, np.ndarray],
        code_block: np.ndarray,
        *,
        include_bias: bool = True,
    ) -> np.ndarray:
        """Approximate similarity block ``(n_queries, n_codes)``.

        The cast of the int8 block is the only non-BLAS work; its cost is
        amortized over every query row in the block.  ``include_bias=False``
        skips the per-query affine offset — a per-row constant that does
        not affect within-row ranking, so candidate scans drop it and save
        one full pass over the block.
        """
        weights, bias = prepared
        scores = weights @ code_block.astype(np.float32).T
        if include_bias:
            scores += bias[:, None]
        return scores

    def scorer(self, queries: np.ndarray):
        weights, bias = self.prepare_queries(queries)
        if len(weights) <= THIN_QUERIES:
            return (
                lambda block: row_major_scores(block.astype(np.float32), weights)
            ), bias
        # A join's left task: every right block is cast into one buffer
        # and scored into another, both this scorer's own (a scorer is
        # built per task, so no two threads share them) and sized by the
        # first block, the widest a scan asks for.
        cast = np.empty((0, self.dim), dtype=np.float32)
        scores = np.empty(0, dtype=np.float32)

        def score(block: np.ndarray) -> np.ndarray:
            nonlocal cast, scores
            if len(block) > len(cast):
                cast = np.empty((len(block), self.dim), dtype=np.float32)
                scores = np.empty(len(weights) * len(block), dtype=np.float32)
            rows = cast[: len(block)]
            np.copyto(rows, block)
            out = scores[: len(weights) * len(block)].reshape(len(weights), len(block))
            return np.matmul(weights, rows.T, out=out)

        return score, bias


def int8_dot(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Exact int32 dot products of raw int8 codes, via fused fp32 GEMM.

    Products of two int8 values and their partial sums over up to
    :data:`_EXACT_CHUNK` dimensions fit in fp32's 24-bit integer window,
    so each chunk's BLAS GEMM is exact; chunks accumulate in int64 and the
    result is returned as int32 (exact for any practical dimensionality).
    """
    codes_a = np.asarray(codes_a)
    codes_b = np.asarray(codes_b)
    if codes_a.ndim != 2 or codes_b.ndim != 2:
        raise DimensionalityError("int8_dot expects 2-D code matrices")
    if codes_a.shape[1] != codes_b.shape[1]:
        raise DimensionalityError(
            f"code width mismatch: {codes_a.shape[1]} vs {codes_b.shape[1]}"
        )
    dim = codes_a.shape[1]
    acc = np.zeros((codes_a.shape[0], codes_b.shape[0]), dtype=np.int64)
    for d0 in range(0, dim, _EXACT_CHUNK):
        a = codes_a[:, d0 : d0 + _EXACT_CHUNK].astype(np.float32)
        b = codes_b[:, d0 : d0 + _EXACT_CHUNK].astype(np.float32)
        acc += (a @ b.T).astype(np.int64)
    return acc.astype(np.int32)
