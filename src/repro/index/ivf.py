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
from ..vector.select import BLOCK_BYTES, fold_topk
from .base import SearchResult, VectorIndex


#: Rows :func:`nearest_centroids` scores at once: 1,024 x 2,343 centroids is
#: 9.6 MB of scores, where one product of a ``serve_scan``-shaped cap build's
#: 37,488 sampled rows held 351 MB; the build took 0.89 s instead of 0.70 s
#: (one BLAS thread) and made the same partition.
ASSIGN_ROWS = 1024

#: Cells :func:`kth_scores` and :func:`cells_over` move at once, and a cap
#: task's phase 2 scores at most: 256 KB of scores, few calls, in cache.
RUN_CELLS = 1 << 16


def nearest_centroids(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's nearest centroid by dot product, :data:`ASSIGN_ROWS` rows
    at a time."""
    chunks = [
        np.argmax(data[lo : lo + ASSIGN_ROWS] @ centroids.T, axis=1)
        for lo in range(0, len(data), ASSIGN_ROWS)
    ]
    return np.concatenate([np.empty(0, np.intp), *chunks])


def kmeans(
    data: np.ndarray,
    n_clusters: int,
    *,
    n_iters: int = 10,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Spherical k-means, the coarse quantizer of unit vectors: assignment
    by argmax dot with mean-and-renormalize updates.  Empty clusters are
    reseeded from random points.  A stable sort gathers each cluster's rows
    in input order, as a mask would.  The loop stops at a fixed point — an
    assignment equal to the last one, whose update reseeded nothing, would
    recompute the same centroids — so the centroids and ``rng`` end as after
    all ``n_iters``.
    """
    if n_clusters < 1:
        raise IndexError_(f"n_clusters must be >= 1, got {n_clusters}")
    rng = np.random.default_rng() if rng is None else rng
    n = data.shape[0]
    n_clusters = min(n_clusters, n)
    centroids = data[rng.choice(n, size=n_clusters, replace=False)].copy()
    last = None
    for _ in range(n_iters):
        assign = nearest_centroids(data, centroids)
        if last is not None and np.array_equal(assign, last):
            break
        order = np.argsort(assign, kind="stable")
        grouped = data[order]
        bounds = np.searchsorted(assign[order], np.arange(n_clusters + 1))
        last = assign if (np.diff(bounds) > 0).all() else None  # None: one is reseeded
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo == hi:
                centroids[c] = data[int(rng.integers(n))]
            else:
                centroids[c] = grouped[lo:hi].mean(axis=0)
        centroids = normalize_rows(centroids)
    return centroids


def score_pairs(packed: np.ndarray, starts: np.ndarray, queries: np.ndarray, rows, lists) -> tuple:
    """The list-major kernel: query row ``rows[i]`` scores list ``lists[i]``
    (``packed[starts[c]:starts[c + 1]]``).  Pairs are grouped by list, rows
    in order within a list, and each list costs one GEMM of the rows that
    probe it, written into one flat fp32 buffer.  Returns ``(rows, lists,
    held, flat)`` in that order: pair ``p`` owns ``flat[held[p]:held[p +
    1]]``, one cell a member of its list."""
    order = np.argsort(lists, kind="stable")
    rows, lists = rows[order], lists[order]
    held = np.concatenate(([0], np.cumsum(np.diff(starts)[lists])))
    flat, grouped = np.empty(held[-1], np.float32), queries[rows]
    cuts = np.flatnonzero(np.diff(lists, prepend=-1, append=-1))
    first = lists[cuts[:-1]]  # each group's list
    edges = cuts[:-1], cuts[1:], starts[first], starts[first + 1]
    for a, b, s, e in zip(*(edge.tolist() for edge in edges)):
        np.dot(grouped[a:b], packed[s:e].T, out=flat[held[a] : held[b]].reshape(b - a, e - s))
    return rows, lists, held, flat


def runs(held: np.ndarray, run: int) -> list[int]:
    """Cuts into :func:`score_pairs`' pairs: a run of whole pairs starts
    where one's first cell passes a multiple of ``run`` cells."""
    return [*np.flatnonzero(np.diff(held[:-1] // run, prepend=-1)).tolist(), len(held) - 1]


def kth_scores(pairs: tuple, n_rows: int, k: int) -> np.ndarray:
    """Each row's ``k``-th best cell of :func:`score_pairs`' buffer
    (``-inf``: fewer than ``k``), by one partition of a ``-inf``-padded
    ``(n_rows, widest)`` strip filled :data:`RUN_CELLS` cells at a time."""
    rows, _, held, flat = pairs
    cells = np.diff(held)
    per_row = np.bincount(rows, cells, n_rows).astype(np.int64)
    width = max(k, int(per_row.max(initial=0)))
    by_row = np.argsort(rows, kind="stable")
    ends = np.empty_like(cells)  # where each pair ends, the rows' cells laid end to end
    ends[by_row] = np.cumsum(cells[by_row])
    shift = rows * width + ends - cells - (np.cumsum(per_row) - per_row)[rows] - held[:-1]
    strip = np.full(n_rows * width, -np.inf, np.float32)
    cuts = runs(held, RUN_CELLS)
    for a, b in zip(cuts[:-1], cuts[1:]):
        at = np.repeat(shift[a:b], cells[a:b]) + np.arange(held[a], held[b])
        strip[at] = flat[held[a] : held[b]]
    strip = strip.reshape(n_rows, width)
    strip.partition(width - k, axis=1)
    return strip[:, width - k].copy()


def cells_over(ids: np.ndarray, starts: np.ndarray, pairs: tuple, floors: np.ndarray):
    """The ``(rows, ids, scores)`` of every cell of :func:`score_pairs`'
    buffer at or over its row's floor: a compare a run of :data:`RUN_CELLS`
    cells, one ``searchsorted`` back to ``ids`` (each packed row's id)."""
    rows, lists, held, flat = pairs
    cells, cuts = np.diff(held), runs(held, RUN_CELLS)
    hit = [np.empty(0, np.int64)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        floor = np.repeat(floors[rows[a:b]], cells[a:b])
        hit.append(held[a] + np.flatnonzero(flat[held[a] : held[b]] >= floor))
    hit = np.concatenate(hit)
    pair = np.searchsorted(held, hit, side="right") - 1
    return rows[pair], ids[starts[lists[pair]] + hit - held[pair]], flat[hit]


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
        assign = nearest_centroids(data, self._centroids)
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
        """The ``nprobe`` closest lists of each unit query, ``(n, nprobe)``,
        in no particular order (the probe's fold orders what they hold)."""
        step = max(1, BLOCK_BYTES // (4 * len(self._centroids)))
        k = min(self.nprobe, len(self._centroids))
        picks = [
            np.argpartition(queries[lo : lo + step] @ -self._centroids.T, k - 1, axis=1)[:, :k]
            for lo in range(0, len(queries), step)
        ]
        return np.concatenate(picks)

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
        """One slice of queries and their lists through :func:`score_pairs`:
        members ``packed_ok`` masks out score ``-inf``, each row's floor is
        its k-th score, and :func:`fold_topk` folds the cells at or over it.
        The same lists and counts as a loop of :meth:`search`."""
        n_q, nlist = len(queries), len(self._centroids)
        totals = np.diff(self._starts)[probe].sum(axis=1)
        self.stats.count(
            probes=n_q,
            distances=n_q * nlist + int(totals.sum()),
            hops=probe.shape[1] * int(np.count_nonzero(totals)),
        )
        rows = np.repeat(np.arange(n_q), probe.shape[1])
        pairs = score_pairs(self._packed, self._starts, queries, rows, probe.ravel())
        _, lists, held, flat = pairs
        if packed_ok is not None:
            at = np.repeat(self._starts[lists] - held[:-1], np.diff(held)) + np.arange(held[-1])
            flat[~packed_ok[at]] = -np.inf
        # Over -inf: masked rows never reach a floor, even a row's short of k.
        floors = np.maximum(kth_scores(pairs, n_q, k), np.finfo(np.float32).min)
        found = cells_over(self._packed_ids, self._starts, pairs, floors)
        rows, ids, found = fold_topk([found], n_q, k)
        cuts = np.searchsorted(rows, np.arange(1, n_q))
        return [
            SearchResult(ids=i, scores=f)
            for i, f in zip(np.split(ids, cuts), np.split(found, cuts))
        ]

    def probe_terms(self) -> tuple[int, float]:
        lists = len(self._starts) - 1
        return lists, min(self.nprobe, lists) / max(lists, 1)

    def list_sizes(self) -> list[int]:
        """Inverted-list occupancy (diagnostics)."""
        return np.diff(self._starts).tolist()

    def describe(self) -> str:
        return (
            f"IVFFlat(n={len(self)}, nlist={self.nlist}, nprobe={self.nprobe})"
        )
