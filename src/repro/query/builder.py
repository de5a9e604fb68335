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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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
from ..algebra.optimizer import Optimizer
from ..algebra.physical_planner import (
    ExecutionContext,
    ExecutionReport,
    SourceState,
    execute,
)
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.cost_model import CostParams
from ..core.join import STRATEGIES
from ..embedding.cache import EmbeddingStore
from ..embedding.registry import ModelRegistry
from ..engine import ExecutionEngine
from ..errors import PlanError
from ..index.base import VectorIndex
from ..relational.catalog import Catalog
from ..relational.expressions import Expression
from ..relational.table import Table
from ..reliability.breaker import BreakerRegistry


@dataclass
class Engine:
    """Query engine: catalog + model registry + index registry + optimizer."""

    catalog: Catalog
    models: ModelRegistry = field(default_factory=ModelRegistry)
    cost_params: CostParams = field(default_factory=CostParams)

    def __post_init__(self) -> None:
        self._indexes: dict[tuple[str, str], VectorIndex] = {}
        self._index_epoch = 0
        #: Every scan source's derived state and the embed-once stores,
        #: shared by every context (so every query and client) this
        #: engine mints, and the circuit breakers of its access paths.
        self.sources = SourceState()
        self.breakers = BreakerRegistry()
        # One morsel-driven executor is shared by every query on this
        # engine (built lazily so later ``repro.configure(...)`` calls
        # still take effect): cumulative scheduling stats in one place,
        # attributed per query by the tag of the ambient query scope.
        self._executor_lock = threading.Lock()
        self._executor: ExecutionEngine | None = None
        self._executor_signature: tuple | None = None
        self._executor_pinned = False

    @staticmethod
    def _current_executor_signature() -> tuple:
        from ..config import get_config

        # The knobs only: the machine's CPU count costs a system call on
        # every query, and a rebuild does not follow it anyway.
        config = get_config()
        return (
            config.default_threads,
            config.default_morsel_rows,
            config.default_buffer_budget_bytes,
            config.retry_max_attempts,
            config.retry_base_ms,
            config.retry_cap_ms,
        )

    @property
    def executor(self) -> ExecutionEngine:
        """The engine's shared morsel executor.

        Built lazily from the current configuration and rebuilt (with
        fresh stats) when the relevant config knobs change afterwards —
        so ``repro.configure(default_threads=...)`` keeps working on an
        already-constructed engine.  Assigning an executor explicitly
        pins it, disabling config tracking.
        """
        with self._executor_lock:
            if self._executor is not None and self._executor_pinned:
                return self._executor
            signature = self._current_executor_signature()
            if self._executor is None or signature != self._executor_signature:
                self._executor = ExecutionEngine()
                self._executor_signature = signature
            return self._executor

    @executor.setter
    def executor(self, engine: ExecutionEngine) -> None:
        with self._executor_lock:
            self._executor = engine
            self._executor_pinned = True

    def embed_store_for(self, model_name: str) -> EmbeddingStore:
        """Shared embed-once store for ``model_name`` (get-or-create)."""
        return self.sources.store_for(model_name, self.models.get(model_name))

    def register_index(self, table: str, column: str, index: VectorIndex) -> None:
        """Attach a built vector index to ``table.column``.

        Bumps :attr:`index_epoch`: a new index can change the physical
        access path (and thus results, for approximate indexes), so any
        cached results keyed on the epoch stop matching.
        """
        self.catalog.get(table)  # validate the table exists
        self._indexes[(table, column)] = index
        self._index_epoch += 1

    @property
    def index_epoch(self) -> int:
        """Counter of index registrations (result-cache key component)."""
        return self._index_epoch

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

    def context(self) -> ExecutionContext:
        """A context over this engine's catalog, models, registered indexes
        (a snapshot), executor, scan-source state (shared, so state one
        query builds amortizes across every later one) and breakers."""
        return ExecutionContext(
            self.catalog,
            models=self.models,
            indexes=dict(self._indexes),
            cost_params=self.cost_params,
            engine=self.executor,
            sources=self.sources,
            breakers=self.breakers,
        )


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
        optimizer = Optimizer(catalog=self.engine.catalog)
        optimized = optimizer.optimize(self.plan)
        lines = [optimized.explain()]
        if optimizer.trace.steps:
            lines.append("-- rewrites applied:")
            lines.extend(f"--   {s}" for s in optimizer.trace.steps)
        return "\n".join(lines)

    def execute(self, *, optimize: bool = True) -> Table:
        """Optimize (by default) and run the query to a materialized table."""
        plan = self.optimized_plan() if optimize else self.plan
        report = ExecutionReport()
        result = execute(plan, self.engine.context(), report=report)
        self._last_report = report
        return result

    @property
    def last_report(self) -> ExecutionReport | None:
        """Physical-execution report of the most recent :meth:`execute`."""
        return self._last_report
