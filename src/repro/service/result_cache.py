"""Result cache: exact-key hits on (plan shape, data version, payload).

Caches materialized per-query results keyed by (plan-shape fingerprint,
catalog table versions, query payload signature).  A hit needs the same
plan shape over the same table versions with a bitwise-equal query
payload: the cached table is returned as-is, so repeated queries cost
nothing and stay bit-identical to serial execution.  The caller builds
that key — the expensive parts, the plan walk (:func:`fingerprint`) and
the payload digest (:func:`params_signature`), once per request — and
hands the same tuple to ``lookup`` and ``store``.

Entries are invalidated by catalog version (any re-registration of a
referenced table changes the key), expire after a TTL, and are evicted
LRU beyond capacity.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from ..algebra.logical import ESelectNode, LogicalNode, ScanNode
from ..relational.catalog import Catalog
from ..relational.expressions import Expression
from ..relational.table import Table

#: node class -> getter of its compared, non-child field values (a
#: predicate expression by its ``repr``).
_OWN_FIELDS: dict[type, object] = {}
#: E-selection class -> position of ``query`` among those values.
_QUERY_AT: dict[type, int] = {}


def _mentions(hint, target: type) -> bool:
    """Whether a resolved annotation is ``target`` or holds it anywhere
    (``target | None``, ``tuple[target, ...]``)."""
    return hint is target or any(
        _mentions(arg, target) for arg in get_args(hint)
    )


def _own_fields(cls: type):
    # Classified once per class, on the *resolved* annotations — however
    # they are spelled or wrapped — so the per-plan walk stays a getter.
    hints = get_type_hints(cls)
    names = [
        f.name
        for f in fields(cls)
        if f.compare and not _mentions(hints[f.name], LogicalNode)
    ]
    if issubclass(cls, ESelectNode):
        _QUERY_AT[cls] = names.index("query")
    predicates = {n for n in names if _mentions(hints[n], Expression)}
    if predicates:

        def getter(node):
            return tuple(
                repr(getattr(node, name))
                if name in predicates
                else getattr(node, name)
                for name in names
            )

    else:
        getter = attrgetter(*names) if names else lambda node: ()
    _OWN_FIELDS[cls] = getter
    return getter


def _key(node: LogicalNode, params: list | None, tables: set | None) -> tuple:
    """The one plan walk: a node's class, own fields and children's keys.

    With ``params`` given, each E-selection payload moves into it
    (pre-order) and its position there takes its place in the key;
    base-table names collect in ``tables``.
    """
    cls = type(node)
    own = (_OWN_FIELDS.get(cls) or _own_fields(cls))(node)
    if params is not None:
        if cls is ScanNode:
            tables.add(node.table_name)
        elif isinstance(node, ESelectNode):
            at = _QUERY_AT[cls]
            own = (*own[:at], len(params), *own[at + 1 :])
            params.append(node.query)
    children = node.children()
    if not children:  # a leaf: no comprehension to run
        return (cls.__name__, own)
    return (cls.__name__, own, *[_key(child, params, tables) for child in children])


def structure(node: LogicalNode) -> tuple:
    """Hashable structural identity of a plan: the class and *every*
    compared field of every node, children in order.

    Two plans get equal keys iff they differ in nothing an execution can
    see — unlike ``explain()``, a display string that leaves fields out
    (``ESelectNode.score_column``).  The nodes themselves cannot be the
    key: a predicate :class:`Expression` overloads ``==`` as operator
    sugar and hashes by identity, so it enters by its ``repr``.
    """
    return _key(node, None, None)


class Fingerprint(NamedTuple):
    """One walk of a request's plan: its ``structure`` with each
    E-selection payload replaced by its position, the payloads in that
    order, and the base tables it reads (sorted)."""

    key: tuple
    params: list
    tables: tuple


def fingerprint(plan: LogicalNode) -> Fingerprint:
    params: list = []
    tables: set = set()
    return Fingerprint(_key(plan, params, tables), params, tuple(sorted(tables)))


def table_versions(tables: tuple, catalog: Catalog) -> tuple:
    """(name, version) now, for the base tables a plan reads
    (``fingerprint(plan).tables``)."""
    return tuple([(name, catalog.version(name)) for name in tables])


def _param_signature(param) -> tuple:
    """Exact, hashable signature of one query payload."""
    if isinstance(param, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(param).tobytes()).hexdigest()
        return ("nd", param.shape, param.dtype.str, digest)
    return ("py", repr(param))


def params_signature(params: list) -> tuple:
    return tuple(map(_param_signature, params))


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
        return asdict(self)


@dataclass
class ResultCache:
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
    # Public API
    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> Table | None:
        """Cached result under ``key``: ``(plan fingerprint, table
        versions, params_signature(payloads))``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if time.monotonic() < entry.expires_at:
                    self._entries.move_to_end(key)
                    self.stats.exact_hits += 1
                    return entry.result
                self.stats.expirations += 1
                del self._entries[key]
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
