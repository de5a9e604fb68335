"""Product quantization: per-subspace k-means codebooks with ADC scoring.

The dimension axis is split into ``m`` contiguous subspaces; each subspace
gets a ``ks``-entry codebook trained with plain (non-spherical) k-means,
and a vector's code is the tuple of its nearest centroid ids — ``m`` bytes
per vector, a ``4 * dim / m``-fold cut in scanned bytes (the IVF_PQ family
Milvus/FAISS ship alongside IVF_FLAT).

Scoring is asymmetric distance computation (ADC): a query is expanded once
into per-subspace lookup tables of query-centroid dot products, after
which a code's approximate similarity is the sum of ``m`` table entries —
exactly ``q . decode(code)``, because the dot product is linear over the
subspace decomposition.  Batched scans evaluate the table-sum for a whole
block as one sparse-matrix product: codes become a one-hot CSR matrix over
the ``m * ks`` concatenated codebook axis and the block of approximate
scores is ``onehot @ luts.T`` (``m`` fused multiply-adds per pair instead
of ``dim``).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ...config import get_config
from ...errors import DimensionalityError
from .base import VectorQuantizer

#: Codes are stored as uint8, capping codebook size at 256 entries.
MAX_KS = 256


class ProductQuantizer(VectorQuantizer):
    """Product quantizer over ``m`` contiguous subspaces."""

    def __init__(
        self,
        dim: int,
        *,
        m: int = 8,
        ks: int = MAX_KS,
        kmeans_iters: int = 10,
        max_train_rows: int = 16384,
        seed: int | None = None,
    ) -> None:
        super().__init__(dim)
        if not 1 <= m <= dim:
            raise DimensionalityError(f"m must be in [1, {dim}], got {m}")
        if not 2 <= ks <= MAX_KS:
            raise DimensionalityError(f"ks must be in [2, {MAX_KS}], got {ks}")
        self.m = int(m)
        self.ks = int(ks)
        self.kmeans_iters = int(kmeans_iters)
        self.max_train_rows = int(max_train_rows)
        seed = get_config().stream_seed("pq") if seed is None else seed
        self._rng = np.random.default_rng(seed)
        # Contiguous subspace boundaries (np.array_split semantics).
        edges = np.linspace(0, dim, self.m + 1).astype(int)
        self.subspaces: list[tuple[int, int]] = [
            (int(edges[j]), int(edges[j + 1])) for j in range(self.m)
        ]
        self.codebooks: list[np.ndarray] = []
        self.ks_eff = self.ks
        self._max_residual = 0.0
        self._mean_residual = 0.0

    @property
    def bytes_per_code(self) -> int:
        return self.m

    def fit(self, data: np.ndarray) -> "ProductQuantizer":
        from ...index.ivf import kmeans  # local import: index layer imports vector

        data = self._check_matrix(data)
        if len(data) == 0:
            raise DimensionalityError("cannot fit ProductQuantizer on 0 rows")
        train = data
        if len(train) > self.max_train_rows:
            pick = self._rng.choice(len(train), self.max_train_rows, replace=False)
            train = train[np.sort(pick)]
        self.ks_eff = min(self.ks, len(train))
        self.codebooks = [
            kmeans(
                np.ascontiguousarray(train[:, a:b]),
                self.ks_eff,
                n_iters=self.kmeans_iters,
                rng=self._rng,
                spherical=False,
            )
            for a, b in self.subspaces
        ]
        self._fitted = True
        # Residuals over the full fitted relation keep the error bound
        # sound even when codebooks were trained on a subsample.
        self._track_residuals(data, self.encode(data, _track=False))
        return self

    def encode(self, data: np.ndarray, *, _track: bool = True) -> np.ndarray:
        self._require_fitted()
        data = self._check_matrix(data)
        codes = np.empty((len(data), self.m), dtype=np.uint8)
        for j, (a, b) in enumerate(self.subspaces):
            cb = self.codebooks[j]
            # argmin ||x - c||^2 == argmax (x.c - ||c||^2 / 2)
            sims = data[:, a:b] @ cb.T - 0.5 * np.einsum("ij,ij->i", cb, cb)
            codes[:, j] = np.argmax(sims, axis=1).astype(np.uint8)
        if _track and len(data):
            self._track_residuals(data, codes)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.m:
            raise DimensionalityError(
                f"expected (n, {self.m}) codes, got shape {codes.shape}"
            )
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        for j, (a, b) in enumerate(self.subspaces):
            out[:, a:b] = self.codebooks[j][codes[:, j].astype(np.intp)]
        return out

    def _track_residuals(self, data: np.ndarray, codes: np.ndarray) -> None:
        err = data - self.decode(codes)
        norms = np.sqrt(np.einsum("ij,ij->i", err, err))
        if len(norms):
            self._max_residual = max(self._max_residual, float(norms.max()))
            self._mean_residual = float(norms.mean())

    def score_error_bound(self) -> float:
        """``|q.x - q.decode(encode(x))| <= max ||x - x_hat||`` for unit q.

        The maximum is tracked over every row this quantizer has encoded,
        so the bound is sound for any relation quantized through it.
        """
        self._require_fitted()
        # Small additive slack absorbs fp32 accumulation noise in ADC GEMMs.
        return self._max_residual + 1e-5

    @property
    def mean_residual(self) -> float:
        """Mean reconstruction error of the last encoded batch (diagnostic)."""
        return self._mean_residual

    # ------------------------------------------------------------------
    # Asymmetric scoring
    # ------------------------------------------------------------------
    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query LUTs over the concatenated codebook axis.

        Returns ``(n_queries, m * ks_eff)``: entry ``[i, j * ks_eff + c]``
        is the dot product of query ``i``'s subspace ``j`` with centroid
        ``c`` — all the information ADC needs about the query.
        """
        self._require_fitted()
        queries = self._check_matrix(queries)
        luts = [
            queries[:, a:b] @ self.codebooks[j].T
            for j, (a, b) in enumerate(self.subspaces)
        ]
        return np.concatenate(luts, axis=1).astype(np.float32)

    def onehot(self, codes: np.ndarray) -> sparse.csr_matrix:
        """One-hot CSR over the concatenated codebook axis.

        Built once per encoded relation; ``onehot @ luts.T`` then computes
        a whole block of ADC scores as a single sparse product with ``m``
        multiply-adds per pair.
        """
        self._require_fitted()
        codes = np.asarray(codes)
        n = len(codes)
        cols = codes.astype(np.int32) + (
            np.arange(self.m, dtype=np.int32) * self.ks_eff
        )
        return sparse.csr_matrix(
            (
                np.ones(n * self.m, dtype=np.float32),
                cols.ravel(),
                np.arange(0, n * self.m + 1, self.m),
            ),
            shape=(n, self.m * self.ks_eff),
        )

    def scan_rows(self, codes: np.ndarray) -> sparse.csr_matrix:
        return self.onehot(codes)

    def scorer(self, queries: np.ndarray):
        # (m * ks, n_queries): the orientation the CSR product consumes;
        # the scores are the transposed view of its (rows, n_queries)
        # product, and the select reads any strides.
        tables = np.ascontiguousarray(self.lookup_tables(queries).T)
        return (lambda block: np.asarray(block @ tables).T), None

    def adc_scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Dense ``(n_queries, n_codes)`` ADC block (convenience path)."""
        luts = self.lookup_tables(queries)
        return np.asarray((self.onehot(codes) @ luts.T).T)
