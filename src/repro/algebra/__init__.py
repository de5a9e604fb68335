"""Extended relational algebra, rewrite rules, optimizer, physical planner."""

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
from .optimizer import Optimizer
from .physical_planner import ExecutionContext, ExecutionReport, execute

__all__ = [
    "EJoinNode",
    "ESelectNode",
    "EmbedNode",
    "EquiJoinNode",
    "ExecutionContext",
    "ExecutionReport",
    "FilterNode",
    "LimitNode",
    "LogicalNode",
    "Optimizer",
    "ProjectNode",
    "ScanNode",
    "execute",
    "walk",
]
