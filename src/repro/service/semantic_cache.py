"""Result cache: exact-key hits on (plan shape, data version, payload).

Caches materialized per-query results keyed by (plan-shape fingerprint,
catalog table versions, query payload signature).  A hit needs the same
plan shape over the same table versions with a bitwise-equal query
payload: the cached table is returned as-is, so repeated queries cost
nothing and stay bit-identical to serial execution.  The caller builds
that key — the expensive parts, the plan walk and the payload digest,
once per request — and hands the same tuple to ``lookup`` and ``store``.

Entries are invalidated by catalog version (any re-registration of a
referenced table changes the key — the same fingerprint-invalidation
contract as ``Engine._quant_stores``), expire after a TTL, and are evicted
LRU beyond capacity.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..relational.catalog import Catalog
from ..relational.table import Table


def table_versions(tables: tuple, catalog: Catalog) -> tuple:
    """(name, version) now, for the base tables a plan reads
    (``fingerprint(plan).tables``)."""
    return tuple((name, catalog.version(name)) for name in tables)


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
    result: Table
    expires_at: float


@dataclass
class ResultCacheStats:
    exact_hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    invalidations: int = 0

    def snapshot(self) -> dict:
        return {
            "exact_hits": self.exact_hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class SemanticResultCache:
    """TTL + LRU cache of exact query results."""

    capacity: int = 512
    ttl_s: float = 300.0
    stats: ResultCacheStats = field(default_factory=ResultCacheStats)

    def __post_init__(self) -> None:
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
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
    def _live(self, key: tuple, now: float) -> _Entry | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if now >= entry.expires_at:
            self.stats.expirations += 1
            del self._entries[key]
            return None
        return entry

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> Table | None:
        """Cached result under ``key``: ``(plan fingerprint, table
        versions, params_signature(payloads))``."""
        with self._lock:
            entry = self._live(key, time.monotonic())
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.exact_hits += 1
                return entry.result
            self.stats.misses += 1
            return None

    def store(self, key: tuple, result: Table) -> None:
        """Insert a computed result, evicting LRU beyond capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries.pop(key, None)  # refresh TTL/LRU position on re-store
            self._entries[key] = _Entry(result, time.monotonic() + self.ttl_s)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate_table(self, name: str) -> int:
        """Drop every entry whose key references table ``name``.

        Version keys already make stale entries unreachable; this frees
        their memory eagerly (e.g. after a bulk re-registration).
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if any(item[0] == name for item in key[1])
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
