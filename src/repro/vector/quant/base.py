"""Vector quantizer interface.

A quantizer compresses fp32 embedding rows into fixed-width codes and
scores queries *asymmetrically*: the query side stays fp32 while the base
side is represented by its codes, so approximate similarities are exactly
``q . decode(code)`` — the standard ADC (asymmetric distance computation)
formulation FAISS/Milvus use for their SQ8/PQ index families.

Two error notions matter downstream:

* :meth:`VectorQuantizer.score_error_bound` — a *sound* upper bound on
  ``|q . x - q . decode(encode(x))|`` for unit-norm queries over the data
  the quantizer was fitted on.  Threshold scans subtract it from the
  predicate so the approximate pass never drops a true match; the exact
  re-rank then restores precision.
* the candidate multiple — top-k scans over-retrieve ``multiple * k``
  approximate candidates and re-rank them in fp32, trading a bounded
  amount of extra exact compute for recall.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from ...errors import DimensionalityError


class VectorQuantizer(abc.ABC):
    """Base class for trained vector quantizers."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise DimensionalityError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self._fitted = False

    @property
    def fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise DimensionalityError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    def _check_matrix(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise DimensionalityError(
                f"expected (n, {self.dim}) matrix, got shape {data.shape}"
            )
        return data

    @property
    @abc.abstractmethod
    def bytes_per_code(self) -> int:
        """Stored bytes per encoded vector (the memory-traffic lever)."""

    @abc.abstractmethod
    def fit(self, data: np.ndarray) -> "VectorQuantizer":
        """Train quantization parameters on a representative sample."""

    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Compress ``(n, dim)`` fp32 rows into ``(n, code_width)`` codes."""

    @abc.abstractmethod
    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``(n, dim)`` fp32 rows from codes."""

    @abc.abstractmethod
    def score_error_bound(self) -> float:
        """Upper bound on ``|q.x - q.decode(encode(x))|`` for unit ``q``.

        Sound for the rows the quantizer was fitted on (the join encodes
        exactly the relation it was fitted against).
        """

    def scan_rows(self, codes: np.ndarray):
        """What a scan streams for ``codes``, sliceable by row range: the
        codes themselves unless the quantizer scores another layout."""
        return codes

    @abc.abstractmethod
    def scorer(
        self, queries: np.ndarray
    ) -> tuple[Callable[..., np.ndarray], np.ndarray | None]:
        """Fold ``queries`` into the representation once: ``(score, bias)``.

        ``score(block)`` maps a row range of :meth:`scan_rows` to
        ``(n_queries, len(block))`` approximate scores, any strides, with
        the per-query constant ``bias`` left out (``None``: nothing is) —
        ``score(block) + bias[:, None] == queries @ decode(codes).T``.
        Ranking within a query does not need the bias, so a scan adds it
        to the cells it keeps instead of to every cell.  A block is the
        caller's until it asks for the next one: ``score`` may reuse its
        buffer, and is one thread's.
        """
