"""Rule-driven logical optimizer.

Applies :mod:`~repro.algebra.rules` bottom-up to a fixpoint.  The catalog
(when provided) supplies column visibility and cardinalities so pushdown
and input-ordering rules can fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import OptimizerError
from ..relational.catalog import Catalog
from .logical import LogicalNode
from .rules import RewriteRule, default_rules

_MAX_PASSES = 32


@dataclass
class OptimizationTrace:
    """Record of rule applications for EXPLAIN output."""

    steps: list[str] = field(default_factory=list)

    def record(self, rule: RewriteRule, before: LogicalNode, after: LogicalNode) -> None:
        self.steps.append(
            f"{rule.name}: {before.describe()} -> {after.describe()}"
        )


class Optimizer:
    """Bottom-up fixpoint rewriter.

    Built once per owner (a service keeps one): the rules are fixed at
    construction and read the catalog when they fire, and each
    :meth:`optimize` call keeps its trace local, so concurrent calls
    share nothing mutable.
    """

    def __init__(
        self,
        rules: list[RewriteRule] | None = None,
        *,
        catalog: Catalog | None = None,
    ) -> None:
        self.rules = default_rules(catalog) if rules is None else list(rules)

    def optimize(
        self, plan: LogicalNode, trace: OptimizationTrace | None = None
    ) -> LogicalNode:
        """Rewrite to fixpoint, recording each rewrite in ``trace`` when
        one is given; raises if rules fail to converge."""
        trace = OptimizationTrace() if trace is None else trace
        current = plan
        for _ in range(_MAX_PASSES):
            rewritten, changed = self._apply_once(current, trace)
            if not changed:
                return rewritten
            current = rewritten
        raise OptimizerError(
            f"optimizer did not converge within {_MAX_PASSES} passes; "
            f"trace: {trace.steps[-5:]}"
        )

    def _apply_once(
        self, node: LogicalNode, trace: OptimizationTrace
    ) -> tuple[LogicalNode, bool]:
        # Rewrite children first (bottom-up).
        changed = False
        new_children = []
        for child in node.children():
            rewritten, child_changed = self._apply_once(child, trace)
            new_children.append(rewritten)
            changed = changed or child_changed
        if changed:
            node = node.with_children(new_children)
        # Then try rules at this node.
        for rule in self.rules:
            result = rule.apply(node)
            if result is not None:
                trace.record(rule, node, result)
                return result, True
        return node, changed
