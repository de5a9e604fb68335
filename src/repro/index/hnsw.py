"""Hierarchical Navigable Small World (HNSW) index, from scratch.

Reimplements Malkov & Yashunin's HNSW (paper ref [52]) — the index the
paper's vector-database comparator (Milvus) uses, and "the overall
best-performing index from ANN-Benchmark" per Section VI-E.  Key structure:

* nodes live on geometrically-distributed levels (``mL = 1/ln(M)``),
* each level is a navigable proximity graph with degree bound ``M``
  (``2M`` on the ground layer),
* insertion searches with beam width ``ef_construction``; probes search the
  upper layers greedily and the ground layer with beam width ``ef_search``,
* results are **approximate**: accuracy is a build-time property (the Lo/Hi
  configurations of Figures 15-17).

Relational **pre-filtering** follows the Milvus semantics the paper
describes: the traversal proceeds over the full graph (paying traversal
cost), while the result heap only admits ids allowed by the bitmap.
"""

from __future__ import annotations

import heapq
import math
import threading
import time

import numpy as np

from ..config import get_config
from ..errors import IndexError_
from ..vector.norms import normalize_vector
from .base import SearchResult, VectorIndex


class HNSWIndex(VectorIndex):
    """Approximate cosine top-k index with HNSW graph layout."""

    def __init__(
        self,
        dim: int,
        *,
        m: int = 16,
        ef_construction: int = 128,
        ef_search: int = 64,
        seed: int | None = None,
    ) -> None:
        super().__init__(dim)
        if m < 2:
            raise IndexError_(f"M must be >= 2, got {m}")
        if ef_construction < 1 or ef_search < 1:
            raise IndexError_("ef parameters must be >= 1")
        self.m = int(m)
        self.m_max0 = 2 * self.m
        self.ef_construction = int(ef_construction)
        self.ef_search = int(ef_search)
        self._ml = 1.0 / math.log(self.m)
        seed = get_config().stream_seed("hnsw") if seed is None else seed
        self._rng = np.random.default_rng(seed)
        # _links[level][node_id] -> list of neighbour ids.
        self._links: list[dict[int, list[int]]] = []
        self._node_levels: list[int] = []
        self._entry_point: int | None = None
        self._max_level: int = -1
        self._tally_local = threading.local()

    # ------------------------------------------------------------------
    # Distance helpers (cosine distance over normalized vectors)
    # ------------------------------------------------------------------
    # Counters accumulate in a thread-local tally (plain int adds in the
    # hot traversal loops) and publish to the shared, lock-protected
    # IndexStats once per search/insert — exact under concurrent probes
    # without paying a lock acquire per distance computation.
    def _tally(self):
        local = self._tally_local
        if not hasattr(local, "distances"):
            local.distances = 0
            local.hops = 0
        return local

    def _flush_tally(self, *, probes: int = 0) -> None:
        local = self._tally()
        self.stats.count(
            probes=probes, distances=local.distances, hops=local.hops
        )
        local.distances = 0
        local.hops = 0

    def _dist_one(self, query: np.ndarray, node: int) -> float:
        self._tally().distances += 1
        return 1.0 - float(self._vectors[node] @ query)

    def _dist_many(self, query: np.ndarray, nodes: list[int]) -> np.ndarray:
        self._tally().distances += len(nodes)
        return 1.0 - self._vectors[np.asarray(nodes)] @ query

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)

    def _insert(self, normalized: np.ndarray, base_id: int) -> None:
        start = time.perf_counter()
        for offset in range(normalized.shape[0]):
            self._insert_one(base_id + offset)
        self._flush_tally()
        self.stats.build_seconds += time.perf_counter() - start

    def _insert_one(self, node: int) -> None:
        level = self._random_level()
        self._node_levels.append(level)
        while len(self._links) <= level:
            self._links.append({})
        for lvl in range(level + 1):
            self._links[lvl][node] = []

        if self._entry_point is None:
            self._entry_point = node
            self._max_level = level
            return

        query = self._vectors[node]
        current = self._entry_point
        # Greedy descent through layers above the node's level.
        for lvl in range(self._max_level, level, -1):
            current = self._greedy_step(query, current, lvl)

        # Beam-search insertion on each shared layer.
        for lvl in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(
                query, [current], lvl, self.ef_construction
            )
            m_max = self.m_max0 if lvl == 0 else self.m
            neighbors = self._select_neighbors(candidates, self.m)
            self._links[lvl][node] = [nid for _, nid in neighbors]
            for _, nid in neighbors:
                links = self._links[lvl][nid]
                links.append(node)
                if len(links) > m_max:
                    self._shrink_links(nid, lvl, m_max)
            if candidates:
                current = min(candidates)[1]

        if level > self._max_level:
            self._max_level = level
            self._entry_point = node

    def _shrink_links(self, node: int, level: int, m_max: int) -> None:
        """Keep only the ``m_max`` closest neighbours of ``node``."""
        links = self._links[level][node]
        dists = self._dist_many(self._vectors[node], links)
        order = np.argsort(dists, kind="stable")[:m_max]
        self._links[level][node] = [links[int(i)] for i in order]

    @staticmethod
    def _select_neighbors(
        candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Simple closest-first neighbour selection."""
        return sorted(candidates)[:m]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _greedy_step(self, query: np.ndarray, start: int, level: int) -> int:
        """Greedy hill-climb to the local minimum on one layer."""
        current = start
        current_dist = self._dist_one(query, current)
        improved = True
        while improved:
            improved = False
            neighbors = self._links[level].get(current, [])
            if not neighbors:
                break
            dists = self._dist_many(query, neighbors)
            self._tally().hops += 1
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = neighbors[best]
                current_dist = float(dists[best])
                improved = True
        return current

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[int],
        level: int,
        ef: int,
        allowed: np.ndarray | None = None,
    ) -> list[tuple[float, int]]:
        """Beam search on one layer; returns (dist, id) pairs.

        With a pre-filter, the beam traverses all nodes (cost is paid) but
        the result list only admits allowed ids; the beam size is governed
        by the *unfiltered* frontier so navigability is preserved.
        """
        visited: set[int] = set(entry_points)
        candidates: list[tuple[float, int]] = []  # min-heap by distance
        results: list[tuple[float, int]] = []  # max-heap via negated dist
        for ep in entry_points:
            d = self._dist_one(query, ep)
            heapq.heappush(candidates, (d, ep))
            if allowed is None or allowed[ep]:
                heapq.heappush(results, (-d, ep))

        while candidates:
            dist, node = heapq.heappop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            neighbors = [
                n for n in self._links[level].get(node, []) if n not in visited
            ]
            if not neighbors:
                continue
            visited.update(neighbors)
            self._tally().hops += 1
            dists = self._dist_many(query, neighbors)
            worst = -results[0][0] if results else math.inf
            for n, d in zip(neighbors, dists.tolist()):
                if len(results) < ef or d < worst:
                    heapq.heappush(candidates, (d, n))
                    if allowed is None or allowed[n]:
                        heapq.heappush(results, (-d, n))
                        if len(results) > ef:
                            heapq.heappop(results)
                        worst = -results[0][0]
        return [(-neg, nid) for neg, nid in results]

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        allowed: np.ndarray | None = None,
        assume_normalized: bool = False,
    ) -> SearchResult:
        self._require_built()
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (len(self._vectors),):
                raise IndexError_(
                    f"pre-filter bitmap shape {allowed.shape} != "
                    f"({len(self._vectors)},)"
                )
        query = np.asarray(query, dtype=np.float32)
        if not assume_normalized:
            query = normalize_vector(query)
        assert self._entry_point is not None

        current = self._entry_point
        for lvl in range(self._max_level, 0, -1):
            current = self._greedy_step(query, current, lvl)

        ef = max(self.ef_search, k)
        found = self._search_layer(query, [current], 0, ef, allowed=allowed)
        found.sort()
        top = found[:k]
        ids = np.asarray([nid for _, nid in top], dtype=np.int64)
        scores = np.asarray([1.0 - d for d, _ in top], dtype=np.float32)
        self._flush_tally(probes=1)
        return SearchResult(ids=ids, scores=scores)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level_sizes(self) -> list[int]:
        """Number of nodes present on each level (diagnostics)."""
        return [len(layer) for layer in self._links]

    def describe(self) -> str:
        return (
            f"HNSW(n={len(self)}, M={self.m}, efC={self.ef_construction}, "
            f"efS={self.ef_search}, levels={self._max_level + 1})"
        )
