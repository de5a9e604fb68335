"""Plan cache: repeated query *shapes* skip the optimizer.

Service traffic is shape-repetitive — millions of users issue the same
template ("top-k over corpus.embedding under model m") with different
query payloads.  The cache therefore keys on a **parameterized
fingerprint**: the logical plan with every E-selection query payload
replaced by a positional placeholder.  :func:`fingerprint` reads that key
off the plan in one walk without building anything; the service keys a
request with it once, before it knows whether anything will execute.  On
a plan-cache miss the optimizer runs once on the placeholder plan (rewrite
rules are structural and never inspect query payloads); on a hit the
cached optimized template is re-instantiated by substituting the new
payloads — identical to optimizing the concrete plan directly, without
paying the fixpoint rewrite walk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import NamedTuple, get_args, get_type_hints

from ..algebra.logical import ESelectNode, LogicalNode, ScanNode
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


def _rebind(node: LogicalNode, swap) -> LogicalNode:
    """``node`` with every E-selection payload ``q`` replaced by ``swap(q)``
    (pre-order); subtrees nothing changed in are shared, not copied."""
    if isinstance(node, ESelectNode):
        query = swap(node.query)
        if query is not node.query:
            node = replace(node, query=query)
    children = node.children()
    rebuilt = [_rebind(child, swap) for child in children]
    if any(new is not old for new, old in zip(rebuilt, children)):
        node = node.with_children(rebuilt)
    return node


def parameterize(plan: LogicalNode) -> tuple[LogicalNode, list]:
    """Split a plan into (template with placeholders, payload list).

    Placeholders are numbered in pre-order traversal, so structurally
    identical plans always produce the same template and an aligned
    payload order.  Only a plan-cache miss builds the template; keying a
    request (:func:`fingerprint`) does not.
    """
    params: list = []

    def placeholder(query):
        if isinstance(query, PlanParam):
            return query
        params.append(query)
        return PlanParam(len(params) - 1)

    return _rebind(plan, placeholder), params


def substitute(template: LogicalNode, params: list) -> LogicalNode:
    """Re-instantiate a template by filling placeholders from ``params``."""
    return _rebind(
        template, lambda q: params[q.index] if isinstance(q, PlanParam) else q
    )


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

    With ``params`` given, each concrete E-selection payload moves into it
    (pre-order, as :func:`parameterize` numbers them) and its placeholder
    takes its place in the key; base-table names collect in ``tables``.
    """
    cls = type(node)
    own = (_OWN_FIELDS.get(cls) or _own_fields(cls))(node)
    if params is not None:
        if cls is ScanNode:
            tables.add(node.table_name)
        elif isinstance(node, ESelectNode) and not isinstance(
            node.query, PlanParam
        ):
            at = _QUERY_AT[cls]
            own = (*own[:at], PlanParam(len(params)), *own[at + 1 :])
            params.append(node.query)
    return (
        cls.__name__,
        own,
        *[_key(child, params, tables) for child in node.children()],
    )


def structure(node: LogicalNode) -> tuple:
    """Hashable structural identity of a plan (template): the class and
    *every* compared field of every node, children in order.

    Two plans get equal keys iff they differ in nothing an execution can
    see — unlike ``explain()``, a display string that leaves fields out
    (``ESelectNode.score_column``).  The nodes themselves cannot be the
    key: a predicate :class:`Expression` overloads ``==`` as operator
    sugar and hashes by identity, so it enters by its ``repr``.
    """
    return _key(node, None, None)


class Fingerprint(NamedTuple):
    """One walk of a request's plan: ``structure`` of its template, the
    payloads the placeholders stand for, the base tables it reads (sorted)."""

    key: tuple
    params: list
    tables: tuple


def fingerprint(plan: LogicalNode) -> Fingerprint:
    params: list = []
    tables: set = set()
    return Fingerprint(_key(plan, params, tables), params, tuple(sorted(tables)))


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
        self,
        plan: LogicalNode,
        *,
        catalog: Catalog | None = None,
        shape: Fingerprint | None = None,
    ) -> LogicalNode:
        """Optimized plan for ``plan``, via the template cache.

        ``shape`` is ``fingerprint(plan)`` when the caller already has it
        (the service does: it keyed the request before probing the
        result cache).
        """
        with span("plan.cache") as sp:
            key, params, _ = shape or fingerprint(plan)
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
            sp.set(hit=cached is not None, params=len(params))
            if cached is None:
                cached = Optimizer(catalog=catalog).optimize(
                    parameterize(plan)[0]
                )
                with self._lock:
                    self.stats.misses += 1
                    if self.capacity > 0:
                        self._entries[key] = cached
                        self._entries.move_to_end(key)
                        while len(self._entries) > self.capacity:
                            self._entries.popitem(last=False)
                            self.stats.evictions += 1
            return substitute(cached, params)

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the cache lock."""
        with self._lock:
            snap = self.stats.snapshot()
            snap["entries"] = len(self._entries)
            return snap
