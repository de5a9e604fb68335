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
from ..vector.norms import normalize_rows
from ..vector.select import BLOCK_BYTES, TopKReducer, select_above
from ..vector.topk import top_k_per_row
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
    Empty clusters are reseeded from random points either way.  A stable
    sort gathers each cluster's rows in input order, as a mask would.
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
        order = np.argsort(assign, kind="stable")
        grouped = data[order]
        bounds = np.searchsorted(assign[order], np.arange(n_clusters + 1))
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo == hi:
                centroids[c] = data[int(rng.integers(n))]
            else:
                centroids[c] = grouped[lo:hi].mean(axis=0)
        if spherical:
            centroids = normalize_rows(centroids)
    return centroids


def probe_lists(
    queries: np.ndarray, packed: np.ndarray, packed_ids: np.ndarray, starts: np.ndarray,
    pair_rows: np.ndarray, pair_lists: np.ndarray, *, k: int | None = None,
    floors=-np.inf, packed_ok: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The list-major probe: query row ``pair_rows[i]`` scores list
    ``pair_lists[i]`` (``packed[starts[c]:starts[c + 1]]``, ids
    ``packed_ids[...]``; ``packed_ok`` masks rows out), pairs sorted by row.
    Each list costs one GEMM of the rows that probe it; a row's lists fill
    its strip of one ``-inf``-padded ``(n_queries, widest)`` matrix in the
    order given; one :func:`select_above` pass (``k=`` and/or per-row
    ``floors``) and one :class:`TopKReducer` fold give ``(rows, ids,
    scores)`` by ``(row, score desc, id asc)`` — without a ``k``, every cell
    at its floor by ``(row, id)``."""
    n_q = len(queries)
    sizes = np.diff(starts)[pair_lists]
    lead = np.cumsum(sizes) - sizes  # each pair's strip, all rows end to end
    edges = np.append(lead, sizes.sum())[np.searchsorted(pair_rows, np.arange(n_q + 1))]
    width = int(np.diff(edges).max(initial=0))
    pairs = np.argsort(pair_lists, kind="stable")  # grouped by list
    bounds = np.searchsorted(pair_lists[pairs], np.arange(len(starts)))
    grouped, cells, row = queries[pair_rows[pairs]], sizes[pairs], pair_rows[pairs]
    # Blocks hold their pairs' cells pair after pair; runs of ~64K cells are
    # scattered into the strips at once (small index arrays, few calls).
    held = np.concatenate(([0], np.cumsum(cells)))
    shift = row * width + lead[pairs] - edges[row] - held[:-1]
    scores = np.full(n_q * width, -np.inf, np.float32)

    def put(first: int, last: int, blocks: list) -> None:
        at = np.repeat(shift[first:last], cells[first:last]) + np.arange(held[first], held[last])
        scores[at] = np.concatenate([np.empty(0, np.float32), *blocks])

    blocks, first = [], 0
    probed = np.flatnonzero(np.diff(bounds) * np.diff(starts))
    for lo, hi, s, e in zip(
        *(edge[probed].tolist() for edge in (bounds[:-1], bounds[1:], starts[:-1], starts[1:]))
    ):
        blocks.append(grouped[lo:hi] @ packed[s:e].T)
        if packed_ok is not None:
            blocks[-1][:, ~packed_ok[s:e]] = -np.inf
        blocks[-1] = blocks[-1].ravel()
        if held[hi] - held[first] >= 1 << 16:
            put(first, hi, blocks)
            blocks, first = [], hi
    put(first, len(pairs), blocks)
    rows, cols, found = select_above(scores.reshape(n_q, width), floors, k=k)
    real = found > -np.inf  # drop strip padding and masked rows
    rows, at, found = rows[real], edges[rows[real]] + cols[real], found[real]
    slot = np.searchsorted(lead, at, side="right") - 1
    ids = packed_ids[starts[pair_lists[slot]] + at - lead[slot]]
    if k is None:
        order = np.lexsort((ids, rows))
        return rows[order], ids[order], found[order]
    reducer = TopKReducer(n_q, k)
    reducer.merge(rows, ids, found)
    return reducer.finalize()


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
        query = np.asarray(query, dtype=np.float32)[None, :]
        if not assume_normalized:
            query = normalize_rows(query)
        return self._search_batch(query, k, allowed)[0]

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
        """:func:`probe_lists` over one slice of queries and their lists;
        the same lists and counts as a loop of :meth:`search`."""
        n_q, nlist = len(queries), len(self._centroids)
        totals = np.diff(self._starts)[probe].sum(axis=1)
        self.stats.count(
            probes=n_q,
            distances=n_q * nlist + int(totals.sum()),
            hops=probe.shape[1] * int(np.count_nonzero(totals)),
        )
        rows, ids, found = probe_lists(
            queries, self._packed, self._packed_ids, self._starts,
            np.repeat(np.arange(n_q), probe.shape[1]), probe.ravel(),
            k=k, packed_ok=packed_ok,
        )
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
