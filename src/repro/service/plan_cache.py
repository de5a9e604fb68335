"""Plan cache: repeated query *shapes* skip the optimizer.

Service traffic is shape-repetitive — millions of users issue the same
template ("top-k over corpus.embedding under model m") with different
query payloads.  The cache therefore keys on a **parameterized
fingerprint**: the logical plan with every E-selection query payload
replaced by a positional placeholder.  On a miss the optimizer runs once
on the placeholder plan (rewrite rules are structural and never inspect
query payloads); on a hit the cached optimized template is re-instantiated
by substituting the new payloads — identical to optimizing the concrete
plan directly, without paying the fixpoint rewrite walk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import NamedTuple, get_args, get_type_hints

from ..algebra.logical import ESelectNode, LogicalNode
from ..algebra.optimizer import Optimizer
from ..obs.trace import span
from ..relational.catalog import Catalog
from ..relational.expressions import Expression


class PlanParam(NamedTuple):
    """Placeholder for a volatile query payload inside a plan template.

    Two placeholders are the same when they stand for the same position
    (tuple equality and hash), so templates compare by structure.
    """

    index: int

    def __repr__(self) -> str:
        return f"?{self.index}"


def parameterize(plan: LogicalNode) -> tuple[LogicalNode, list]:
    """Split a plan into (template with placeholders, payload list).

    Placeholders are numbered in pre-order traversal, so structurally
    identical plans always produce the same template and an aligned
    payload order.
    """
    params: list = []

    def rebuild(node: LogicalNode) -> LogicalNode:
        if isinstance(node, ESelectNode) and not isinstance(
            node.query, PlanParam
        ):
            params.append(node.query)
            node = replace(node, query=PlanParam(len(params) - 1))
        return _with_rebuilt_children(node, rebuild)

    return rebuild(plan), params


def _with_rebuilt_children(node: LogicalNode, rebuild) -> LogicalNode:
    """``node`` over ``rebuild`` of its children; itself when none changed."""
    children = node.children()
    rebuilt = [rebuild(c) for c in children]
    if any(new is not old for new, old in zip(rebuilt, children)):
        node = node.with_children(rebuilt)
    return node


def substitute(template: LogicalNode, params: list) -> LogicalNode:
    """Re-instantiate a template by filling placeholders from ``params``."""

    def rebuild(node: LogicalNode) -> LogicalNode:
        if isinstance(node, ESelectNode) and isinstance(node.query, PlanParam):
            node = replace(node, query=params[node.query.index])
        return _with_rebuilt_children(node, rebuild)

    return rebuild(template)


#: node class -> getter of its compared, non-child field values (a
#: predicate expression by its ``repr``).
_OWN_FIELDS: dict[type, object] = {}


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


def structure(node: LogicalNode) -> tuple:
    """Hashable structural identity of a plan (template): the class and
    *every* compared field of every node, children in order.

    Two plans get equal keys iff they differ in nothing an execution can
    see — unlike ``explain()``, a display string that leaves fields out
    (``ESelectNode.score_column``).  The nodes themselves cannot be the
    key: a predicate :class:`Expression` overloads ``==`` as operator
    sugar and hashes by identity, so it enters by its ``repr``.
    """
    cls = type(node)
    getter = _OWN_FIELDS.get(cls) or _own_fields(cls)
    return (cls.__name__, getter(node), *map(structure, node.children()))


def fingerprint(plan: LogicalNode) -> tuple[tuple, list]:
    """Structural fingerprint plus the extracted volatile payloads."""
    template, params = parameterize(plan)
    return structure(template), params


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class PlanCache:
    """LRU fingerprint -> optimized plan-template cache (thread-safe)."""

    capacity: int = 256
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)

    def __post_init__(self) -> None:
        self._entries: OrderedDict[tuple, LogicalNode] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def optimize(
        self, plan: LogicalNode, *, catalog: Catalog | None = None
    ) -> tuple[LogicalNode, tuple, list]:
        """Optimized plan for ``plan``, via the template cache.

        Returns ``(optimized, fingerprint_key, payloads)`` — the key and
        payloads double as the semantic result cache's lookup key parts.
        """
        with span("plan.cache") as sp:
            template, params = parameterize(plan)
            key = structure(template)
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
            sp.set(hit=cached is not None, params=len(params))
            if cached is None:
                cached = Optimizer(catalog=catalog).optimize(template)
                with self._lock:
                    self.stats.misses += 1
                    if self.capacity > 0:
                        self._entries[key] = cached
                        self._entries.move_to_end(key)
                        while len(self._entries) > self.capacity:
                            self._entries.popitem(last=False)
                            self.stats.evictions += 1
            return substitute(cached, params), key, params

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the cache lock."""
        with self._lock:
            snap = self.stats.snapshot()
            snap["entries"] = len(self._entries)
            return snap
