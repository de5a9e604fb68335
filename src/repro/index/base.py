"""Vector index interface.

Indexes store unit-normalized vectors and answer cosine top-k queries,
optionally under a relational **pre-filter** bitmap: the result set excludes
disallowed ids on the fly while the traversal cost is still paid (paper
Section IV-B, mirroring Milvus' bitmap pre-filtering).

Every index maintains probe counters so the access-path cost model
(``I_probe`` in the E-Index Join Cost equation) can be calibrated from
observed behaviour.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionalityError, IndexNotBuiltError
from ..reliability.faults import maybe_inject
from ..vector.norms import normalize_rows


@dataclass
class IndexStats:
    """Build and probe counters.

    Probe counters feed cost-model calibration, so they must stay exact
    when an execution engine probes the index from several workers —
    mutate them through :meth:`count`, which serializes the update.
    """

    n_inserted: int = 0
    build_seconds: float = 0.0
    n_probes: int = 0
    distance_computations: int = 0
    hops: int = 0
    extra: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, *, probes: int = 0, distances: int = 0, hops: int = 0) -> None:
        """Atomically bump probe counters (safe under concurrent probes)."""
        with self._lock:
            self.n_probes += probes
            self.distance_computations += distances
            self.hops += hops


@dataclass(frozen=True)
class SearchResult:
    """Top-k result of one probe: parallel id/score arrays, best first."""

    ids: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class VectorIndex(abc.ABC):
    """Base class for cosine-similarity vector indexes."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise DimensionalityError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.stats = IndexStats()
        self._vectors = np.empty((0, dim), dtype=np.float32)

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def vectors(self) -> np.ndarray:
        """Stored (unit-normalized) vectors."""
        return self._vectors

    def add(self, vectors: np.ndarray) -> None:
        """Insert a batch of vectors (normalized on ingest)."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise DimensionalityError(
                f"expected (n, {self.dim}) vectors, got shape {vectors.shape}"
            )
        normalized = normalize_rows(vectors)
        base = len(self._vectors)
        self._vectors = (
            normalized
            if base == 0
            else np.vstack([self._vectors, normalized])
        )
        self._insert(normalized, base)
        self.stats.n_inserted += len(vectors)

    @abc.abstractmethod
    def _insert(self, normalized: np.ndarray, base_id: int) -> None:
        """Index-structure-specific insertion of pre-normalized rows."""

    @abc.abstractmethod
    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        allowed: np.ndarray | None = None,
        assume_normalized: bool = False,
    ) -> SearchResult:
        """Top-k most similar ids for one query vector.

        ``allowed`` is an optional boolean bitmap over stored ids: the
        relational pre-filter.  Ids with ``allowed[id] == False`` never
        appear in results.  ``assume_normalized`` skips the per-probe
        query normalization when the caller already holds unit rows
        (stored vectors are always normalized once, on ingest).
        """

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        allowed: np.ndarray | None = None,
        assume_normalized: bool = False,
    ) -> list[SearchResult]:
        """Probe many queries (the paper's join-as-batched-search).

        Queries are normalized once as a batch (one vectorized pass)
        rather than per probe inside :meth:`search`.
        """
        maybe_inject("index.probe")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionalityError(
                f"expected (n, {self.dim}) queries, got shape {queries.shape}"
            )
        if not assume_normalized:
            queries = normalize_rows(queries)
        return self._search_batch(queries, k, allowed)

    def _search_batch(
        self, queries: np.ndarray, k: int, allowed: np.ndarray | None
    ) -> list[SearchResult]:
        """Probe validated unit-row queries; override with a batched kernel."""
        return [
            self.search(q, k, allowed=allowed, assume_normalized=True)
            for q in queries
        ]

    def _require_built(self) -> None:
        if len(self._vectors) == 0:
            raise IndexNotBuiltError(
                f"{type(self).__name__} has no vectors; call add() first"
            )
