"""Logical query plan with context-enhanced operators.

Implements the extended relational algebra of Section III-C: alongside the
classic ``Scan`` / ``Filter`` (sigma) / ``Project`` (pi) / equi-``Join``
nodes, the plan language has:

* :class:`Embed` — the embedding operator ``E_mu(R)``: a special projection
  that maps a context-rich column into tensor space with a named model,
* :class:`EJoin` — the context-enhanced theta-join ``R |><|_{E,mu,theta} S``
  over a similarity condition,

plus the algebraic metadata the optimizer needs (which columns a predicate
touches, whether a node is embedding-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.conditions import JoinCondition
from ..errors import PlanError
from ..relational.expressions import Expression


class LogicalNode:
    """Base class for logical plan nodes."""

    def children(self) -> list["LogicalNode"]:
        raise NotImplementedError

    def with_children(self, children: list["LogicalNode"]) -> "LogicalNode":
        """Structural copy with replaced children (rewrite machinery)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [pad + self.describe()]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def visible_columns(self) -> set[str] | None:
        """Columns this subtree exposes, or None if unknown (no catalog)."""
        return None


@dataclass(frozen=True)
class ScanNode(LogicalNode):
    """Base table access by catalog name."""

    table_name: str

    def children(self) -> list[LogicalNode]:
        return []

    def with_children(self, children: list[LogicalNode]) -> "ScanNode":
        if children:
            raise PlanError("ScanNode takes no children")
        return self

    def describe(self) -> str:
        return f"Scan({self.table_name})"


@dataclass(frozen=True)
class FilterNode(LogicalNode):
    """Relational selection sigma_theta."""

    child: LogicalNode
    predicate: Expression

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def with_children(self, children: list[LogicalNode]) -> "FilterNode":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass(frozen=True)
class ProjectNode(LogicalNode):
    """Projection pi."""

    child: LogicalNode
    names: tuple[str, ...]

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def with_children(self, children: list[LogicalNode]) -> "ProjectNode":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        return f"Project({list(self.names)})"


@dataclass(frozen=True)
class LimitNode(LogicalNode):
    child: LogicalNode
    n: int

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def with_children(self, children: list[LogicalNode]) -> "LimitNode":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        return f"Limit({self.n})"


@dataclass(frozen=True)
class EmbedNode(LogicalNode):
    """The embedding operator ``E_mu``: adds a tensor column.

    ``E_mu(R) = {t in R, t -> mu(t)}`` — modelled here as appending
    ``output_column`` (the embedding of ``column`` under ``model_name``);
    the original column remains available for decode / display, playing the
    role of the lookup-table ``E^-1`` mechanism.
    """

    child: LogicalNode
    column: str
    model_name: str
    output_column: str = ""

    def __post_init__(self) -> None:
        if not self.output_column:
            object.__setattr__(self, "output_column", f"__emb_{self.column}")

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def with_children(self, children: list[LogicalNode]) -> "EmbedNode":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        return f"Embed(E_{{{self.model_name}}}({self.column}) -> {self.output_column})"


@dataclass(frozen=True)
class ESelectNode(LogicalNode):
    """Context-enhanced selection ``sigma_{E,mu,theta}(R)`` (Section III-C).

    Keeps the tuples of ``child`` whose ``column`` is similar to ``query``
    under model ``model_name`` and the given condition, appending the
    similarity as ``score_column``.  The relational-algebra equivalence
    ``sigma_theta(E_mu(R)) == sigma_thetaE(E_mu(sigma_thetaR(R)))`` is what
    lets the optimizer commute cheap relational filters below it.
    """

    child: LogicalNode
    column: str
    query: object
    model_name: str
    condition: JoinCondition
    score_column: str = "similarity"

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def with_children(self, children: list[LogicalNode]) -> "ESelectNode":
        (child,) = children
        return replace(self, child=child)

    def describe(self) -> str:
        return (
            f"ESelect({self.column} ~ {self.query!r}, mu={self.model_name}, "
            f"{self.condition})"
        )


@dataclass(frozen=True)
class EquiJoinNode(LogicalNode):
    """Classic relational equi-join (hash-joinable)."""

    left: LogicalNode
    right: LogicalNode
    left_key: str
    right_key: str

    def children(self) -> list[LogicalNode]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalNode]) -> "EquiJoinNode":
        left, right = children
        return replace(self, left=left, right=right)

    def describe(self) -> str:
        return f"EquiJoin({self.left_key} == {self.right_key})"


@dataclass(frozen=True)
class EJoinNode(LogicalNode):
    """Context-enhanced join ``R |><|_{E,mu,theta} S`` (Section III-C).

    Attributes:
        left_column / right_column: context-rich join columns.
        model_name: the model ``mu`` both sides are embedded with (the
            E-theta-Join equivalence requires the *same* model).
        condition: similarity theta (threshold or top-k).
        prefetch: whether embeddings are hoisted out of the pairwise loop;
            the optimizer's :class:`~repro.algebra.rules.PrefetchEmbeddings`
            rule turns this on (the paper's headline logical optimization).
        strategy_hint: physical strategy override ("tensor", "index", ...).
    """

    left: LogicalNode
    right: LogicalNode
    left_column: str
    right_column: str
    model_name: str
    condition: JoinCondition
    prefetch: bool = False
    strategy_hint: str | None = None
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def children(self) -> list[LogicalNode]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalNode]) -> "EJoinNode":
        left, right = children
        return replace(self, left=left, right=right)

    def describe(self) -> str:
        flags = []
        if self.prefetch:
            flags.append("prefetch")
        if self.strategy_hint:
            flags.append(f"strategy={self.strategy_hint}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"EJoin({self.left_column} ~ {self.right_column}, "
            f"mu={self.model_name}, {self.condition}){suffix}"
        )


def walk(node: LogicalNode):
    """Pre-order traversal of a plan."""
    yield node
    for child in node.children():
        yield from walk(child)
