"""IVF-Flat (inverted file) index, from scratch.

The second index family vector databases ship alongside HNSW (Milvus's
IVF_FLAT): vectors are partitioned into ``nlist`` clusters via k-means on
ingest; a probe scans only the ``nprobe`` closest clusters exhaustively.
Coarser than HNSW but cheap to build — it fills out the access-path design
space the paper's Section VI-E sweeps (build cost vs probe cost vs recall).
"""

from __future__ import annotations

import time

import numpy as np

from ..config import get_config
from ..errors import IndexError_
from ..vector.norms import normalize_rows, normalize_vector
from ..vector.select import BLOCK_BYTES, TopKReducer, select_above
from ..vector.topk import top_k_indices, top_k_per_row
from .base import SearchResult, VectorIndex


def kmeans(
    data: np.ndarray,
    n_clusters: int,
    *,
    n_iters: int = 10,
    rng: np.random.Generator | None = None,
    spherical: bool = True,
) -> np.ndarray:
    """K-means clustering; spherical by default, plain Lloyd otherwise.

    Spherical (the coarse-quantizer default for unit vectors): assignment
    by argmax dot with mean-and-renormalize updates.  Non-spherical (the
    product-quantizer codebooks, whose subspace slices are not unit
    vectors): assignment by Euclidean distance with plain mean updates.
    Empty clusters are reseeded from random points either way.
    """
    if n_clusters < 1:
        raise IndexError_(f"n_clusters must be >= 1, got {n_clusters}")
    rng = np.random.default_rng() if rng is None else rng
    n = data.shape[0]
    n_clusters = min(n_clusters, n)
    centroids = data[rng.choice(n, size=n_clusters, replace=False)].copy()
    for _ in range(n_iters):
        if spherical:
            assign = np.argmax(data @ centroids.T, axis=1)
        else:
            # argmin ||x - c||^2 == argmax (x.c - ||c||^2 / 2)
            obj = data @ centroids.T - 0.5 * np.einsum(
                "ij,ij->i", centroids, centroids
            )
            assign = np.argmax(obj, axis=1)
        for c in range(n_clusters):
            members = data[assign == c]
            if len(members) == 0:
                centroids[c] = data[int(rng.integers(n))]
            else:
                centroids[c] = members.mean(axis=0)
        if spherical:
            centroids = normalize_rows(centroids)
    return centroids


class IVFFlatIndex(VectorIndex):
    """Inverted-file index with exhaustive in-cluster search."""

    def __init__(
        self,
        dim: int,
        *,
        nlist: int = 64,
        nprobe: int = 8,
        kmeans_iters: int = 10,
        seed: int | None = None,
    ) -> None:
        super().__init__(dim)
        if nlist < 1:
            raise IndexError_(f"nlist must be >= 1, got {nlist}")
        if nprobe < 1:
            raise IndexError_(f"nprobe must be >= 1, got {nprobe}")
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.kmeans_iters = int(kmeans_iters)
        seed = get_config().stream_seed("ivf") if seed is None else seed
        self._rng = np.random.default_rng(seed)
        self._centroids: np.ndarray | None = None
        #: List-contiguous copy of the stored rows (list ``c`` is rows
        #: ``_starts[c]:_starts[c + 1]``) and the id of each packed row.
        self._packed = np.empty((0, dim), dtype=np.float32)
        self._packed_ids = np.empty(0, dtype=np.int64)
        self._starts = np.zeros(1, dtype=np.int64)

    def _insert(self, normalized: np.ndarray, base_id: int) -> None:
        # IVF retrains its coarse quantizer over the full collection on
        # every add (fine for the batch-build usage in this repo).
        start = time.perf_counter()
        data = self._vectors  # includes the new rows (appended by add())
        self._centroids = kmeans(
            data,
            self.nlist,
            n_iters=self.kmeans_iters,
            rng=self._rng,
        )
        assign = np.argmax(data @ self._centroids.T, axis=1)
        # Stable sort: ids stay ascending within each list.
        self._packed_ids = np.argsort(assign, kind="stable")
        self._packed = data[self._packed_ids]
        self._starts = np.searchsorted(
            assign[self._packed_ids], np.arange(len(self._centroids) + 1)
        )
        self.stats.build_seconds += time.perf_counter() - start

    def _bitmap(self, allowed: np.ndarray) -> np.ndarray:
        """The pre-filter as a boolean bitmap over stored ids, validated."""
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (len(self._vectors),):
            raise IndexError_(
                f"pre-filter bitmap shape {allowed.shape} != "
                f"({len(self._vectors)},)"
            )
        return allowed

    def _probe_lists(self, queries: np.ndarray) -> np.ndarray:
        """The ``nprobe`` closest lists of each unit query, ``(n, nprobe)``."""
        step = max(1, BLOCK_BYTES // (4 * len(self._centroids)))
        return np.concatenate(
            [
                top_k_per_row(queries[lo : lo + step] @ self._centroids.T, self.nprobe)
                for lo in range(0, len(queries), step)
            ]
        )

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        allowed: np.ndarray | None = None,
        assume_normalized: bool = False,
    ) -> SearchResult:
        self._require_built()
        assert self._centroids is not None
        query = np.asarray(query, dtype=np.float32)
        if not assume_normalized:
            query = normalize_vector(query)

        probe_lists = self._probe_lists(query[None, :])[0]
        self.stats.count(probes=1, distances=len(self._centroids))
        spans = [
            slice(self._starts[c], self._starts[c + 1]) for c in probe_lists
        ]
        candidates = np.concatenate([self._packed_ids[s] for s in spans])
        if len(candidates) == 0:
            return SearchResult(
                ids=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float32),
            )
        sims = np.concatenate([self._packed[s] for s in spans]) @ query
        self.stats.count(distances=len(candidates), hops=len(probe_lists))
        if allowed is not None:
            mask = self._bitmap(allowed)[candidates]
            candidates, sims = candidates[mask], sims[mask]
        best = top_k_indices(sims, k)
        return SearchResult(
            ids=candidates[best], scores=sims[best].astype(np.float32)
        )

    def _search_batch(
        self, queries: np.ndarray, k: int, allowed: np.ndarray | None
    ) -> list[SearchResult]:
        """List-major probe of a query batch, a cache-sized slice at a time.

        The slice is as many queries as keep one fp32 cell per scored
        candidate within :data:`repro.vector.select.BLOCK_BYTES`, so probe
        memory does not grow with the batch.
        """
        self._require_built()
        if len(queries) == 0:
            return []
        packed_ok = (
            None if allowed is None else self._bitmap(allowed)[self._packed_ids]
        )
        probe = self._probe_lists(queries)
        widest = int(np.diff(self._starts)[probe].sum(axis=1).max())
        step = max(1, BLOCK_BYTES // (4 * max(widest, 1)))
        found: list[SearchResult] = []
        for lo in range(0, len(queries), step):
            found += self._probe_slice(
                queries[lo : lo + step], probe[lo : lo + step], k, packed_ok
            )
        return found

    def _probe_slice(
        self,
        queries: np.ndarray,
        probe: np.ndarray,
        k: int,
        packed_ok: np.ndarray | None,
    ) -> list[SearchResult]:
        """Probe one slice of queries with their ``probe`` lists, list by list.

        (Query, list) pairs are grouped by list and each probed list
        costs one GEMM against its contiguous packed rows, written into
        that query's strip of a dense ``(n_queries, max candidates)``
        score matrix; one select pass over the matrix and one flat merge
        give every query's top-k.  Visits the same lists and counts the
        same work as a loop of :meth:`search`.
        """
        n_q, nlist = len(queries), len(self._centroids)
        sizes = np.diff(self._starts)[probe]
        ends = np.cumsum(sizes, axis=1)
        strips = ends - sizes  # column where each (query, probe) strip starts
        totals = ends[:, -1]
        self.stats.count(
            probes=n_q,
            distances=n_q * nlist + int(totals.sum()),
            hops=probe.shape[1] * int(np.count_nonzero(totals)),
        )
        scores = np.full((n_q, int(totals.max())), -np.inf, np.float32)
        pairs = np.argsort(probe, axis=None, kind="stable")  # grouped by list
        bounds = np.searchsorted(probe.ravel()[pairs], np.arange(nlist + 1))
        pair_query = pairs // probe.shape[1]
        pair_strip = strips.ravel()[pairs]
        for c in np.flatnonzero(np.diff(bounds) * np.diff(self._starts)):
            s, e = self._starts[c], self._starts[c + 1]
            rows = pair_query[bounds[c] : bounds[c + 1]]
            block = queries[rows] @ self._packed[s:e].T
            if packed_ok is not None:
                block[:, ~packed_ok[s:e]] = -np.inf
            cols = pair_strip[bounds[c] : bounds[c + 1], None] + np.arange(e - s)
            scores[rows[:, None], cols] = block
        rows, cols, found = select_above(scores, -np.inf, k=k)
        real = found > -np.inf  # drop strip padding and disallowed ids
        rows, cols, found = rows[real], cols[real], found[real]
        slot = (cols[:, None] >= strips[rows]).sum(axis=1) - 1
        ids = self._packed_ids[
            self._starts[probe[rows, slot]] + cols - strips[rows, slot]
        ]
        reducer = TopKReducer(n_q, k)
        reducer.merge(rows, ids, found)
        rows, ids, found = reducer.finalize()
        cuts = np.searchsorted(rows, np.arange(1, n_q))
        return [
            SearchResult(ids=i, scores=f)
            for i, f in zip(np.split(ids, cuts), np.split(found, cuts))
        ]

    def list_sizes(self) -> list[int]:
        """Inverted-list occupancy (diagnostics)."""
        return np.diff(self._starts).tolist()

    def describe(self) -> str:
        return (
            f"IVFFlat(n={len(self)}, nlist={self.nlist}, nprobe={self.nprobe})"
        )
