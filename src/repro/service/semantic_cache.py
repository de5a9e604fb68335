"""Semantic result cache: exact-key and near-duplicate query-vector hits.

Caches materialized per-query results keyed by (plan-shape fingerprint,
catalog table versions, query payload signature).  Two hit modes:

* **exact** — same plan shape over the same table versions with a bitwise-
  equal query payload: the cached table is returned as-is, so repeated
  queries cost nothing and stay bit-identical to serial execution;
* **near-duplicate** (opt-in) — a *different* query vector whose cosine
  similarity to a cached one clears ``near_dup_threshold``: semantically
  the same question, served approximately.  Off by default because it
  trades the service's exactness guarantee for hit rate.

Entries are invalidated by catalog version (any re-registration of a
referenced table changes the key — the same fingerprint-invalidation
contract as ``Engine._quant_stores``), expire after a TTL, and are evicted
LRU beyond capacity.

With ``tinylfu=True`` the cache adds **cost-aware TinyLFU admission**: a
:class:`~repro.service.qos.FrequencySketch` counts recent lookups per
key, and a new entry only displaces the LRU victim when its estimated
``frequency * cost`` (cost = the seconds it took to compute, passed by
the service at store time) exceeds the victim's.  One-off scans can no
longer wash a hot working set out of the cache.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..algebra.logical import LogicalNode, ScanNode, walk
from ..relational.catalog import Catalog
from ..relational.table import Table
from ..vector.norms import normalize_vector
from .qos import FrequencySketch


def table_versions(plan: LogicalNode, catalog: Catalog) -> tuple:
    """(name, version) for every base table a plan reads, sorted."""
    names = sorted(
        {n.table_name for n in walk(plan) if isinstance(n, ScanNode)}
    )
    return tuple((name, catalog.version(name)) for name in names)


def _param_signature(param) -> tuple:
    """Exact, hashable signature of one query payload."""
    if isinstance(param, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(param).tobytes()).hexdigest()
        return ("nd", param.shape, param.dtype.str, digest)
    return ("py", repr(param))


def params_signature(params: list) -> tuple:
    return tuple(_param_signature(p) for p in params)


@dataclass
class _Entry:
    group: tuple
    result: Table
    expires_at: float
    #: Unit-normalized query vector, kept only for single-vector payloads
    #: so near-duplicate lookups can compare by cosine.
    qnorm: np.ndarray | None
    #: What this entry saves per hit (seconds to recompute); weighs the
    #: TinyLFU admission duel.
    cost: float = 1.0


@dataclass
class ResultCacheStats:
    exact_hits: int = 0
    near_hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: New entries turned away by TinyLFU admission (the LRU victim was
    #: worth more than the newcomer).
    admission_rejects: int = 0

    def snapshot(self) -> dict:
        return {
            "exact_hits": self.exact_hits,
            "near_hits": self.near_hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "admission_rejects": self.admission_rejects,
        }


@dataclass
class SemanticResultCache:
    """TTL + LRU result cache with optional cosine near-duplicate hits
    and optional TinyLFU cost-aware admission (``tinylfu=True``)."""

    capacity: int = 512
    ttl_s: float = 300.0
    near_dup_threshold: float | None = None
    tinylfu: bool = False
    stats: ResultCacheStats = field(default_factory=ResultCacheStats)

    def __post_init__(self) -> None:
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._groups: dict[tuple, list] = {}
        self._sketch = FrequencySketch() if self.tinylfu else None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the cache lock."""
        with self._lock:
            snap = self.stats.snapshot()
            snap["entries"] = len(self._entries)
            return snap

    # ------------------------------------------------------------------
    # Internals (called with the lock held)
    # ------------------------------------------------------------------
    def _remove(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        members = self._groups.get(entry.group)
        if members is not None:
            members.remove(key)
            if not members:
                del self._groups[entry.group]

    def _live(self, key: tuple, now: float) -> _Entry | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if now >= entry.expires_at:
            self.stats.expirations += 1
            self._remove(key)
            return None
        return entry

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def lookup(
        self, fingerprint: tuple, versions: tuple, params: list
    ) -> Table | None:
        """Cached result for this (shape, data-version, payload) query."""
        now = time.monotonic()
        group = (fingerprint, versions)
        key = (*group, params_signature(params))
        if self._sketch is not None:
            # Count the *demand* for this key whether or not it hits, so
            # admission knows what the workload keeps asking for.
            self._sketch.record(FrequencySketch.key_hash(key))
        with self._lock:
            entry = self._live(key, now)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.exact_hits += 1
                return entry.result
            if self.near_dup_threshold is not None and len(params) == 1:
                hit = self._near_lookup(group, params[0], now)
                if hit is not None:
                    return hit
            self.stats.misses += 1
            return None

    def _near_lookup(self, group: tuple, param, now: float) -> Table | None:
        if not (isinstance(param, np.ndarray) and param.ndim == 1):
            return None
        qnorm = normalize_vector(param)
        best_key, best_sim = None, -2.0
        for key in list(self._groups.get(group, ())):
            entry = self._live(key, now)
            if entry is None or entry.qnorm is None:
                continue
            sim = float(entry.qnorm @ qnorm)
            if sim > best_sim:
                best_key, best_sim = key, sim
        if best_key is not None and best_sim >= self.near_dup_threshold:
            self._entries.move_to_end(best_key)
            self.stats.near_hits += 1
            return self._entries[best_key].result
        return None

    def store(
        self,
        fingerprint: tuple,
        versions: tuple,
        params: list,
        result: Table,
        *,
        cost: float = 1.0,
    ) -> None:
        """Insert a computed result (``cost``: seconds it took to compute).

        Under TinyLFU admission an insert that would evict may instead be
        rejected: the new entry is admitted only if its estimated
        ``frequency * cost`` beats the LRU victim's, so the cache keeps
        whichever entry saves more expected work.
        """
        if self.capacity <= 0:
            return
        group = (fingerprint, versions)
        key = (*group, params_signature(params))
        qnorm = None
        if len(params) == 1 and isinstance(params[0], np.ndarray):
            if params[0].ndim == 1:
                qnorm = normalize_vector(params[0])
        with self._lock:
            self._remove(key)  # refresh TTL/LRU position on re-store
            self._entries[key] = _Entry(
                group,
                result,
                time.monotonic() + self.ttl_s,
                qnorm,
                cost=max(cost, 1e-9),
            )
            self._groups.setdefault(group, []).append(key)
            while len(self._entries) > self.capacity:
                victim_key = next(iter(self._entries))
                if self._sketch is not None and victim_key != key:
                    new_worth = self._sketch.estimate(
                        FrequencySketch.key_hash(key)
                    ) * self._entries[key].cost
                    victim_worth = self._sketch.estimate(
                        FrequencySketch.key_hash(victim_key)
                    ) * self._entries[victim_key].cost
                    if new_worth < victim_worth:
                        self._remove(key)
                        self.stats.admission_rejects += 1
                        break
                self._remove(victim_key)
                self.stats.evictions += 1

    def invalidate_table(self, name: str) -> int:
        """Drop every entry whose key references table ``name``.

        Version keys already make stale entries unreachable; this frees
        their memory eagerly (e.g. after a bulk re-registration).
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if any(item[0] == name for item in entry.group[1])
            ]
            for key in doomed:
                self._remove(key)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._groups.clear()
