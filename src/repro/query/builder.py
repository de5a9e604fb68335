"""Declarative query builder: the user-facing API of Figure 4.

The builder assembles a logical plan from fluent calls; the engine
optimizes it with the extended-algebra rules and executes it physically.
The user specifies *what* (model name, similarity threshold, relational
predicates) — never *how* (prefetching, loop order, scan vs probe), which
is exactly the declarative contract the paper argues for.

Example::

    engine = Engine(catalog)
    engine.models.register("words", model)
    out = (
        engine.query("photos")
        .where(Col("taken") > date(2023, 12, 2))
        .ejoin("examples", left_on="caption", right_on="text",
               model="words", threshold=0.9)
        .select(["caption", "text", "similarity"])
        .execute()
    )

The engine is the execution context every query runs against, built
once: the config fields its executor reads (threads, morsel size, buffer
budget) are read when the engine is built, so a later
``repro.config.configure(...)`` reaches engines built after it.  Assign
``engine.executor`` to pin another executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.logical import (
    EJoinNode,
    EmbedNode,
    EquiJoinNode,
    ESelectNode,
    FilterNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
)
from ..algebra.optimizer import OptimizationTrace, Optimizer
from ..algebra.physical_planner import (
    ExecutionContext,
    ExecutionReport,
    execute,
)
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.join import STRATEGIES
from ..errors import PlanError
from ..relational.expressions import Expression
from ..relational.table import Table


class Engine(ExecutionContext):
    """Query engine: the execution context every query on it runs
    against (catalog, models, indexes, costs, executor, scan-source state
    and breakers, each built once with the engine), plus the two doors
    :meth:`query` and :meth:`serve`."""

    def query(self, table_name: str) -> "QueryBuilder":
        self.catalog.get(table_name)  # validate early
        return QueryBuilder(self, ScanNode(table_name))

    def serve(self, **kwargs):
        """A :class:`~repro.service.QueryService` fronting this engine.

        Keyword arguments are forwarded to the service constructor
        (``max_inflight``, ``coalesce``, the result cache's size,
        tracing, ...); anything unspecified keeps its component's default.
        Clients call :meth:`QueryService.submit` for plain exact serving
        and :meth:`QueryService.submit_qos` for deadline/priority terms,
        each naming its query with ``tag=``; wrap the service in
        :class:`~repro.service.AsyncQueryService` for asyncio clients.
        """
        from ..service import QueryService

        return QueryService(self, **kwargs)


@dataclass
class QueryBuilder:
    """Immutable-style fluent builder over a logical plan."""

    engine: Engine
    plan: LogicalNode
    _last_report: ExecutionReport | None = None

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def where(self, predicate: Expression) -> "QueryBuilder":
        return QueryBuilder(self.engine, FilterNode(self.plan, predicate))

    def select(self, names: list[str]) -> "QueryBuilder":
        return QueryBuilder(self.engine, ProjectNode(self.plan, tuple(names)))

    def limit(self, n: int) -> "QueryBuilder":
        return QueryBuilder(self.engine, LimitNode(self.plan, n))

    def embed(self, column: str, model: str, *, output: str = "") -> "QueryBuilder":
        return QueryBuilder(
            self.engine, EmbedNode(self.plan, column, model, output)
        )

    def esimilar(
        self,
        column: str,
        query,
        *,
        model: str,
        threshold: float | None = None,
        top_k: int | None = None,
        min_similarity: float | None = None,
        score_column: str = "similarity",
    ) -> "QueryBuilder":
        """Context-enhanced selection: keep rows whose ``column`` is
        similar to ``query`` (Section III-C's E-selection)."""
        if (threshold is None) == (top_k is None):
            raise PlanError("specify exactly one of threshold= or top_k=")
        if threshold is not None:
            condition = ThresholdCondition(threshold)
        else:
            condition = TopKCondition(top_k, min_similarity=min_similarity)
        node = ESelectNode(
            self.plan, column, query, model, condition, score_column
        )
        return QueryBuilder(self.engine, node)

    def join(self, other: "str | QueryBuilder", *, left_on: str, right_on: str) -> "QueryBuilder":
        """Classic relational equi-join."""
        right = self._as_plan(other)
        return QueryBuilder(
            self.engine, EquiJoinNode(self.plan, right, left_on, right_on)
        )

    def ejoin(
        self,
        other: "str | QueryBuilder",
        *,
        left_on: str,
        right_on: str,
        model: str,
        threshold: float | None = None,
        top_k: int | None = None,
        min_similarity: float | None = None,
        strategy: str | None = None,
    ) -> "QueryBuilder":
        """Context-enhanced similarity join.

        Exactly one of ``threshold`` (range condition) or ``top_k`` must be
        given; ``min_similarity`` optionally refines ``top_k``.  ``strategy``
        pins a label of :data:`~repro.core.join.STRATEGIES`; with none, the
        physical planner picks the access path.
        """
        if (threshold is None) == (top_k is None):
            raise PlanError("specify exactly one of threshold= or top_k=")
        if strategy is not None and strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {strategy!r}; have {tuple(STRATEGIES)} "
                "(omit it to let the planner choose)"
            )
        if threshold is not None:
            condition = ThresholdCondition(threshold)
        else:
            condition = TopKCondition(top_k, min_similarity=min_similarity)
        right = self._as_plan(other)
        node = EJoinNode(
            self.plan,
            right,
            left_on,
            right_on,
            model,
            condition,
            strategy_hint=strategy,
        )
        return QueryBuilder(self.engine, node)

    def _as_plan(self, other: "str | QueryBuilder") -> LogicalNode:
        if isinstance(other, QueryBuilder):
            return other.plan
        self.engine.catalog.get(other)
        return ScanNode(other)

    # ------------------------------------------------------------------
    # Optimization & execution
    # ------------------------------------------------------------------
    def optimized_plan(self) -> LogicalNode:
        optimizer = Optimizer(catalog=self.engine.catalog)
        return optimizer.optimize(self.plan)

    def explain(self, *, optimize: bool = True) -> str:
        """Textual plan; shows the rewrite trace when optimizing."""
        if not optimize:
            return self.plan.explain()
        trace = OptimizationTrace()
        optimized = Optimizer(catalog=self.engine.catalog).optimize(self.plan, trace)
        lines = [optimized.explain()]
        if trace.steps:
            lines.append("-- rewrites applied:")
            lines.extend(f"--   {s}" for s in trace.steps)
        return "\n".join(lines)

    def execute(self, *, optimize: bool = True) -> Table:
        """Optimize (by default) and run the query to a materialized table."""
        plan = self.optimized_plan() if optimize else self.plan
        report = ExecutionReport()
        result = execute(plan, self.engine, report=report)
        self._last_report = report
        return result

    @property
    def last_report(self) -> ExecutionReport | None:
        """Physical-execution report of the most recent :meth:`execute`."""
        return self._last_report
