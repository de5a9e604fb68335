"""Rewrite rules: the logical optimizations of Sections III-C and IV-A.

Each rule is a local transformation applied bottom-up to a fixpoint by the
:class:`~repro.algebra.optimizer.Optimizer`:

* :class:`PushFilterBelowEmbed` — the E-Selection equivalence
  ``sigma_theta(E_mu(R)) == sigma_thetaE(E_mu(sigma_thetaR(R)))``:
  relational predicates slide below the (expensive) embedding operator so
  "the selectivity information from the relational column propagates before
  the embeddings".
* :class:`PushFilterIntoEJoin` — classic selection pushdown through the
  E-theta-join: single-side predicates move onto that input, shrinking the
  cardinality of the costliest plan fragment.
* :class:`PrefetchEmbeddings` — the E-NLJ Prefetch Optimization: marks
  every E-join to embed each tuple once instead of per pair (quadratic →
  linear model cost).
* :class:`OrderEJoinInputs` — the loop-order heuristic: keep the smaller
  relation on the inner (right) side for cache locality (Figure 10), when
  cardinalities are known and the condition is symmetric.
"""

from __future__ import annotations

import abc

from ..core.conditions import ThresholdCondition
from ..relational.catalog import Catalog
from .logical import (
    EJoinNode,
    EmbedNode,
    EquiJoinNode,
    ESelectNode,
    FilterNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
    walk,
)


def visible_columns(node: LogicalNode, catalog: Catalog | None) -> set[str] | None:
    """Columns a subtree exposes, or None when unknowable."""
    if isinstance(node, ScanNode):
        if catalog is None or node.table_name not in catalog:
            return None
        return set(catalog.get(node.table_name).schema.names)
    if isinstance(node, (FilterNode, LimitNode)):
        return visible_columns(node.child, catalog)
    if isinstance(node, ProjectNode):
        return set(node.names)
    if isinstance(node, EmbedNode):
        base = visible_columns(node.child, catalog)
        if base is None:
            return None
        return base | {node.output_column}
    if isinstance(node, ESelectNode):
        base = visible_columns(node.child, catalog)
        if base is None:
            return None
        return base | {node.score_column}
    if isinstance(node, (EJoinNode, EquiJoinNode)):
        left = visible_columns(node.children()[0], catalog)
        right = visible_columns(node.children()[1], catalog)
        if left is None or right is None:
            return None
        return left | right
    return None


class RewriteRule(abc.ABC):
    """A local plan transformation; returns None when not applicable."""

    name: str = "rule"

    @abc.abstractmethod
    def apply(self, node: LogicalNode) -> LogicalNode | None:
        """Rewrite ``node`` or return None if the rule does not apply."""


class PushFilterBelowEmbed(RewriteRule):
    """sigma_theta(E_mu(R)) -> E_mu(sigma_theta(R)) when theta is
    embedding-independent (does not read the embedding output column)."""

    name = "push-filter-below-embed"

    def apply(self, node: LogicalNode) -> LogicalNode | None:
        if not isinstance(node, FilterNode):
            return None
        child = node.child
        if not isinstance(child, EmbedNode):
            return None
        predicate_cols = node.predicate.columns()
        if child.output_column in predicate_cols:
            return None  # predicate needs the embedding; cannot push
        pushed = FilterNode(child.child, node.predicate)
        return EmbedNode(
            pushed, child.column, child.model_name, child.output_column
        )


class PushFilterIntoEJoin(RewriteRule):
    """Filter above an E-join moves to the input that owns its columns
    (:func:`visible_columns`, the catalog giving a scan's); a predicate
    both inputs could answer (shared names) stays above the join."""

    name = "push-filter-into-ejoin"

    def __init__(self, catalog: Catalog | None = None) -> None:
        self._catalog = catalog

    def apply(self, node: LogicalNode) -> LogicalNode | None:
        if not isinstance(node, FilterNode):
            return None
        child = node.child
        if not isinstance(child, EJoinNode):
            return None
        cols = node.predicate.columns()
        left_cols = visible_columns(child.left, self._catalog)
        right_cols = visible_columns(child.right, self._catalog)
        in_left = left_cols is not None and cols <= left_cols
        in_right = right_cols is not None and cols <= right_cols
        if in_left == in_right:
            return None  # neither input, or ambiguous: keep above the join
        if in_left:
            return child.with_children([FilterNode(child.left, node.predicate), child.right])
        return child.with_children([child.left, FilterNode(child.right, node.predicate)])


class PushFilterBelowESelect(RewriteRule):
    """sigma_theta(sigma_{E,mu}(R)) -> sigma_{E,mu}(sigma_theta(R)).

    Two selections commute; moving the cheap relational one first shrinks
    the cardinality the (model-bearing) E-selection sees — unless the
    predicate reads the similarity score the E-selection produces, or the
    E-selection is top-k (not a pure per-tuple predicate: its result
    depends on the surviving set, so it does not commute).
    """

    name = "push-filter-below-eselect"

    def apply(self, node: LogicalNode) -> LogicalNode | None:
        if not isinstance(node, FilterNode):
            return None
        child = node.child
        if not isinstance(child, ESelectNode):
            return None
        if not isinstance(child.condition, ThresholdCondition):
            return None
        if child.score_column in node.predicate.columns():
            return None
        pushed = FilterNode(child.child, node.predicate)
        return child.with_children([pushed])


class PrefetchEmbeddings(RewriteRule):
    """Enable the prefetch (embed-once) execution mode on every E-join."""

    name = "prefetch-embeddings"

    def apply(self, node: LogicalNode) -> LogicalNode | None:
        if isinstance(node, EJoinNode) and not node.prefetch:
            return EJoinNode(
                node.left,
                node.right,
                node.left_column,
                node.right_column,
                node.model_name,
                node.condition,
                prefetch=True,
                strategy_hint=node.strategy_hint,
            )
        return None


class OrderEJoinInputs(RewriteRule):
    """Keep the smaller relation inner (right side) for locality.

    Only fires for symmetric (threshold) conditions — top-k is defined per
    left tuple and cannot be flipped — and only when both inputs bottom out
    at catalogued scans so cardinalities are known.  A join forced onto an
    index probe keeps its sides: the index is registered on the right
    table, and after a swap the planner would find none to probe.
    """

    name = "order-ejoin-inputs"

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def _cardinality(self, node: LogicalNode) -> int | None:
        scans = [n for n in walk(node) if isinstance(n, ScanNode)]
        if len(scans) != 1 or scans[0].table_name not in self._catalog:
            return None
        return self._catalog.cardinality(scans[0].table_name)

    def apply(self, node: LogicalNode) -> LogicalNode | None:
        if not isinstance(node, EJoinNode):
            return None
        if not isinstance(node.condition, ThresholdCondition):
            return None
        if node.metadata.get("ordered"):
            return None
        left_n = self._cardinality(node.left)
        right_n = self._cardinality(node.right)
        if left_n is None or right_n is None:
            return None
        if right_n <= left_n or node.strategy_hint == "index":
            # Nothing to swap; just mark to stop re-application.
            marked = EJoinNode(
                node.left, node.right, node.left_column, node.right_column,
                node.model_name, node.condition, prefetch=node.prefetch,
                strategy_hint=node.strategy_hint,
            )
            marked.metadata["ordered"] = True
            return marked
        swapped = EJoinNode(
            node.right,
            node.left,
            node.right_column,
            node.left_column,
            node.model_name,
            node.condition,
            prefetch=node.prefetch,
            strategy_hint=node.strategy_hint,
        )
        swapped.metadata["ordered"] = True
        swapped.metadata["swapped"] = True
        return swapped


def default_rules(catalog: Catalog | None = None) -> list[RewriteRule]:
    """The standard rule set, in application order."""
    rules: list[RewriteRule] = [
        PushFilterBelowEmbed(),
        PushFilterBelowESelect(),
        PushFilterIntoEJoin(catalog),
        PrefetchEmbeddings(),
    ]
    if catalog is not None:
        rules.append(OrderEJoinInputs(catalog))
    return rules
