"""Physical planning and execution of logical plans.

The one execution path: :func:`_execute` walks the logical plan and runs
relational nodes as :class:`~repro.relational.table.Table` primitives
(``mask`` / ``select`` / ``slice`` / ``equi_join``); :class:`EmbedNode` runs
the model through an :class:`~repro.embedding.cache.EmbeddingStore`
(embed-once semantics); :class:`EJoinNode` is dispatched to a physical join
strategy —
tensor scan, index probe (with relational pre-filtering pushed into the
probe), or the deliberately-naive per-pair NLJ when prefetching was not
enabled by the optimizer.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..config import get_config
from ..core.caps import CapPartition, build_caps
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.cost_model import (
    CostParams,
    choose_access_path,
    choose_scan_precision,
)
from ..core.eselect import eselect
from ..core.index_join import DEFAULT_PROBE_K, index_join
from ..core.join import ejoin
from ..core.nlj import naive_nlj
from ..core.quantized_join import QuantizedRelation, quantized_eselect
from ..core.result import TopKMemo
from ..embedding.cache import EmbeddingStore, shared_store
from ..embedding.registry import ModelRegistry, default_registry
from ..engine import ExecutionEngine
from ..errors import BufferBudgetError, JoinError, PlanError
from ..index.base import VectorIndex
from ..obs.trace import span
from ..reliability.breaker import breakers
from ..reliability.faults import maybe_inject
from ..relational.catalog import Catalog
from ..relational.column import Column
from ..relational.expressions import validate_boolean
from ..relational.schema import DataType, Field
from ..relational.table import Table
from ..vector.norms import normalize_rows
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
)


@dataclass
class ExecutionContext:
    """Everything physical planning needs: data, models, indexes, costs."""

    catalog: Catalog
    models: ModelRegistry = field(default_factory=default_registry)
    #: (table_name, column_name) -> built vector index over that column.
    indexes: dict[tuple[str, str], VectorIndex] = field(default_factory=dict)
    cost_params: CostParams = field(default_factory=CostParams)
    #: Morsel-driven executor every engine-executed physical operator
    #: schedules on (thread count / buffer budget come from the config).
    engine: ExecutionEngine = field(default_factory=ExecutionEngine)
    #: model_name -> shared embedding store (embed-once across the query).
    _stores: dict[str, EmbeddingStore] = field(default_factory=dict)
    #: (table, column, model, method) -> (source table, pre-encoded
    #: quantized relation).  Like ``indexes``, these are access-path state
    #: built once per context and amortized across queries.
    quant_stores: dict[tuple, object] = field(default_factory=dict)
    #: (table, column, model) -> (source table, unit-normalized matrix);
    #: (table, column, model, "caps") -> (source table, cap partition).
    #: Shared-scan state: one normalization serves every query (and every
    #: concurrent session) scanning the same column under the same model.
    norm_cache: dict[tuple, tuple] = field(default_factory=dict)
    #: (table, column, model) -> (source table,
    #: :class:`~repro.core.result.TopKMemo`): the top-k pairs of every
    #: embed-once code joined against that source under the last top-k
    #: condition, so a string is scanned once per registration.
    topk_memos: dict[tuple, tuple] = field(default_factory=dict)
    #: Serializes bookkeeping on every shared store above.  Contexts
    #: minted by one :class:`~repro.query.builder.Engine` share its lock
    #: (and its store dicts), so concurrent sessions cannot duplicate or
    #: corrupt encode/normalize/fit work.  Heavyweight builds hold a
    #: *per-source* lock from ``store_key_locks`` instead, so cold
    #: queries on unrelated sources never serialize on each other.
    store_lock: threading.RLock = field(default_factory=threading.RLock)
    #: source key -> build lock (shared across contexts like the stores).
    store_key_locks: dict = field(default_factory=dict)
    #: Attribution tag for this query's scheduler runs (service-assigned).
    query_tag: str | None = None

    def _build_lock(self, key: tuple) -> threading.Lock:
        with self.store_lock:
            lock = self.store_key_locks.get(key)
            if lock is None:
                lock = self.store_key_locks[key] = threading.Lock()
            return lock

    def store_for(self, model_name: str) -> EmbeddingStore:
        """The embed-once store of the model registered as ``model_name``."""
        return shared_store(
            self._stores, model_name, self.models.get(model_name), self.store_lock
        )

    def register_index(
        self, table_name: str, column: str, index: VectorIndex
    ) -> None:
        self.indexes[(table_name, column)] = index

    def _scan_state(
        self, kind: str, cache: dict, cache_key: tuple, table: Table, derive,
        store: EmbeddingStore | None = None, tag=None,
    ):
        """Get-or-``derive(store)`` state of a scan source — ``cache_key``
        leads with ``(table name, column, model)`` — for ``table``, the
        registration the caller executed and will materialize from.

        An entry is ``(source table, state, embed-once store, tag)`` and
        hits iff it was derived from this very :class:`Table` object with
        ``store`` — by default the registered model's, which
        :meth:`store_for` replaces with the model — and for an equal
        ``tag``: identity compares, no pass over the column (whose
        embedding is only produced on a miss), and the state can never pair
        with rows of another registration or vectors of another model.  The
        catalog mints a new version per ``register``; registering a new
        table object — even one wrapping the same, mutated, buffer — or a
        new model rebuilds, registering the same object again does not.
        """
        if store is None:
            store = self.store_for(cache_key[2])
        with self._build_lock((kind, *cache_key)):
            with self.store_lock:
                entry = cache.get(cache_key)
            # ``!=`` on the tail: the store by identity, the tag by value.
            if entry is None or entry[0] is not table or entry[2:] != (store, tag):
                entry = (table, derive(store), store, tag)
                with self.store_lock:
                    cache[cache_key] = entry
            return entry[1]

    def quant_store_for(
        self,
        key: tuple[str, str, str],
        table: Table,
        method: str,
        store: EmbeddingStore | None = None,
    ):
        """Fit/encode-once quantized store for a (table, column, model):
        every query against the same registration ``table`` of the scan
        source reuses the encoded codes (embedded with ``store`` if
        given).  Its re-rank rows are the source's one unit-row matrix
        (:meth:`normalized_matrix_for`), not a copy."""
        def build(store: EmbeddingStore):
            unit = self.normalized_matrix_for(key, table, store)
            maybe_inject("quant.build")
            return QuantizedRelation.build(unit, method, assume_normalized=True)

        return self._scan_state(
            "quant", self.quant_stores, (*key, method), table, build,
            store=store,
        )

    def normalized_matrix_for(
        self,
        key: tuple[str, str, str],
        table: Table,
        store: EmbeddingStore | None = None,
    ) -> np.ndarray:
        """Normalize-once matrix for a (table, column, model) scan source,
        derived from its registration ``table`` — embedded with ``store``
        if given, the one whose codes the caller holds.

        The cached matrix is exactly ``normalize_rows`` of the column's
        embedding, so scans that consume it with ``assume_normalized=True``
        compute the same bits as a cold scan that normalizes inline —
        sharing never changes results; a hit on a string column skips its
        embedding pass altogether.
        """
        return self._scan_state(
            "norm", self.norm_cache, key, table,
            lambda store: normalize_rows(
                _embed_column(table, key[1], key[2], self, store)
            ),
            store=store,
        )

    def cap_partition_for(self, key: tuple, table: Table, store=None) -> CapPartition | None:
        """The cap partition (:func:`~repro.core.caps.build_caps`) of a scan
        source's unit-row matrix, valid for what that matrix is; ``None``:
        the source declined one."""
        return self._scan_state(
            "caps", self.norm_cache, (*key, "caps"), table,
            lambda store: build_caps(self.normalized_matrix_for(key, table, store)), store=store,
        )

    def topk_memo_for(
        self,
        key: tuple[str, str, str],
        table: Table,
        condition: TopKCondition,
        store: EmbeddingStore,
    ) -> TopKMemo | None:
        """The top-k pairs each code of ``store`` has joined against the
        registration ``table`` of a scan source under ``condition`` — valid
        for exactly what the unit-row matrix is.  One memo per source: a
        new condition replaces it.  ``None`` while a code's pairs would
        take more bytes than its row in ``store``, or once ``store``, whose
        codes the caller holds, is no longer the registered model's."""
        width = min(condition.k, table.num_rows)
        too_wide = TopKMemo.bytes_per_key(width) > 4 * store.model.dim
        if too_wide or store is not self.store_for(key[2]):
            return None
        return self._scan_state(
            "memo", self.topk_memos, key, table, lambda _: TopKMemo(width),
            store=store, tag=(condition.k, condition.min_similarity),
        )


def _scan_store_key(
    source_node: LogicalNode, column: str, model_name: str
) -> tuple[str, str, str] | None:
    """Context cache key of a plain table scan source (``None`` otherwise).

    Only a plain scan lets the context amortize access-path state — the
    encoded quantized store, the unit-row matrix — across queries.
    """
    if isinstance(source_node, ScanNode):
        return (source_node.table_name, column, model_name)
    return None


def _probe_k(condition) -> int:
    """Candidates a probe fetches per row, as the cost model prices it."""
    return condition.k if isinstance(condition, TopKCondition) else DEFAULT_PROBE_K


def _quantized_scan_decision(
    ctx: "ExecutionContext",
    store_key: tuple[str, str, str] | None,
    n_left: int,
    n_right: int,
    dim: int,
    condition,
):
    """Shared precision gate for scan-based E-joins and E-selections.

    The chooser's verdict under the configured ``REPRO_PRECISION``; the
    fit/encode build is treated as sunk only when the source is a plain
    table scan (``store_key``) whose store is already cached.
    """
    prebuilt = store_key is not None and (
        *store_key,
        get_config().default_precision,
    ) in ctx.quant_stores
    return choose_scan_precision(
        n_left, n_right, _probe_k(condition), dim,
        topk=isinstance(condition, TopKCondition),
        params=ctx.cost_params, store_built=prebuilt,
    )


#: Breaker fallback chain for quantized scan precisions.  Each step down
#: is strictly more exact, ending on the fp32 scan — so routing around a
#: failing access path never weakens results, only speed.
_PRECISION_FALLBACK = {"pq": "int8", "int8": "fp32"}


def _quantized_scan(
    store_key: tuple | None,
    precision: str,
    report: "ExecutionReport",
    run: Callable[[str], object],
):
    """Run a scan at the first precision of the ``pq -> int8`` chain whose
    breaker lets it through and which does not fail.

    ``store_key`` is the ``(table, column, model)`` access-path identity;
    uncacheable sources (``None``) carry no breaker state and keep the
    cost model's choice.  ``run(precision)`` builds (or fetches) the store
    and scans it; a failure feeds that access path's breaker, is reported
    as a fallback and moves one step down the chain — an input error
    (:class:`~repro.errors.JoinError`) is raised as it is.  Returns ``(result,
    precision)``, ``result`` being ``None`` once the chain has ended on
    the exact fp32 scan, which the caller runs.
    """
    while precision in _PRECISION_FALLBACK:
        key = None if store_key is None else (*store_key, precision)
        if key is not None and not breakers().allow(key):
            precision = _PRECISION_FALLBACK[precision]
            continue
        try:
            result = run(precision)
        except Exception as exc:
            # An input error (a NaN row, mismatched dimensions) is not the
            # path's failure: every scan down the chain raises it again.
            # A budget too small is the path's — its candidate state is
            # the larger.
            if isinstance(exc, JoinError) and not isinstance(exc, BufferBudgetError):
                raise
            if key is not None:
                breakers().record_failure(key)
                report.fallbacks.append("/".join(map(str, key)))
            precision = _PRECISION_FALLBACK[precision]
            continue
        if key is not None:
            breakers().record_success(key)
        return result, precision
    return None, precision


@dataclass
class ExecutionReport:
    """Side-channel describing what the physical layer actually did."""

    strategies: list[str] = field(default_factory=list)
    join_stats: list = field(default_factory=list)
    #: Access paths the breaker layer routed around while executing.
    fallbacks: list[str] = field(default_factory=list)


def execute(
    plan: LogicalNode,
    ctx: ExecutionContext,
    *,
    report: ExecutionReport | None = None,
) -> Table:
    """Execute a (typically optimized) logical plan to a materialized table."""
    report = report if report is not None else ExecutionReport()
    return _execute(plan, ctx, report)


def _execute(node: LogicalNode, ctx: ExecutionContext, report: ExecutionReport) -> Table:
    if isinstance(node, ScanNode):
        return ctx.catalog.get(node.table_name)
    if isinstance(node, FilterNode):
        table = _execute(node.child, ctx, report)
        return table.mask(validate_boolean(node.predicate, table))
    if isinstance(node, ProjectNode):
        table = _execute(node.child, ctx, report)
        return table.select(list(node.names))
    if isinstance(node, LimitNode):
        table = _execute(node.child, ctx, report)
        return table.slice(0, node.n)
    if isinstance(node, EmbedNode):
        return _execute_embed(node, ctx, report)
    if isinstance(node, EquiJoinNode):
        left = _execute(node.left, ctx, report)
        right = _execute(node.right, ctx, report)
        return left.equi_join(right, node.left_key, node.right_key)
    if isinstance(node, EJoinNode):
        return _execute_ejoin(node, ctx, report)
    if isinstance(node, ESelectNode):
        return _execute_eselect(node, ctx, report)
    raise PlanError(f"no physical implementation for {type(node).__name__}")


def _execute_eselect(
    node: ESelectNode, ctx: ExecutionContext, report: ExecutionReport
) -> Table:
    table = _execute(node.child, ctx, report)
    model = ctx.models.get(node.model_name)
    # A plain table scan source keeps its scan-ready state (unit rows,
    # encoded store) in the context; only other sources embed here.
    store_key = _scan_store_key(node.child, node.column, node.model_name)
    vectors = (
        None
        if store_key is not None
        else _embed_column(table, node.column, node.model_name, ctx)
    )
    query = eselect_query(node, ctx.store_for)
    # A cold one-shot selection stays on the exact fp32 scan unless the
    # compressed scan wins even with the build charged.
    with span("planner.eselect") as sp:
        n_fallbacks = len(report.fallbacks)
        decision = _quantized_scan_decision(
            ctx,
            store_key,
            1,
            table.num_rows,
            _embedding_dim(table, node.column, model),
            node.condition,
        )

        def quantized(precision: str):
            relation = vectors
            if store_key is not None:
                relation = ctx.quant_store_for(store_key, table, precision)
            return quantized_eselect(
                relation, query, node.condition, method=precision
            )

        result, precision = _quantized_scan(
            store_key, decision.precision, report, quantized
        )
        if result is None:
            # Scan sources share one normalize-once matrix across queries
            # and sessions; eselect's exact-rescore contract makes the
            # shared and inline-normalized paths bit-identical.
            shared = store_key is not None
            result = eselect(
                ctx.normalized_matrix_for(store_key, table) if shared else vectors,
                query, node.condition, assume_normalized=shared,
            )
        report.strategies.append(result.stats.strategy)
        report.join_stats.append(result.stats)
        sp.set(
            precision=precision if precision in ("int8", "pq") else "fp32",
            strategy=result.stats.strategy,
            rows=table.num_rows,
            fallbacks=len(report.fallbacks) - n_fallbacks,
        )
    return materialize_selection(table, result.ids, result.scores, node.score_column)


def eselect_query(node: ESelectNode, store_for: Callable) -> np.ndarray:
    """An E-selection's query as a vector: a raw item goes through the
    shared embed-once store ``store_for(model name)`` hands out."""
    query = node.query
    if not isinstance(query, np.ndarray):
        query = store_for(node.model_name).embed_items([query])[0]
    return query


def unwrap_selection(
    plan: LogicalNode,
) -> tuple[list[LogicalNode], ESelectNode] | None:
    """Match ``Project*/Limit*( ESelect( Scan(t) ) )``: an E-selection over
    a base table scan, which a shared scan can run
    itself and hand to :func:`materialize_selection`.  Returns ``(wrappers
    outermost-first, eselect node)``, else ``None``."""
    wrappers: list[LogicalNode] = []
    node = plan
    while isinstance(node, (ProjectNode, LimitNode)):
        wrappers.append(node)
        node = node.child
    if not isinstance(node, ESelectNode) or not isinstance(node.child, ScanNode):
        return None
    if not isinstance(node.condition, (ThresholdCondition, TopKCondition)):
        return None
    return wrappers, node


def materialize_selection(
    table: Table,
    ids: np.ndarray,
    scores: np.ndarray,
    score_column: str,
    wrappers: Sequence[LogicalNode] = (),
) -> Table:
    """An E-selection's output table, under the ``Project`` / ``Limit``
    nodes (outermost first) of a plan whose selection the caller ran
    itself: a coalesced group."""
    out = table.take(ids).with_column(
        Column(Field(score_column, DataType.FLOAT32), scores)
    )
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, ProjectNode):
            out = out.select(list(wrapper.names))
        else:
            assert isinstance(wrapper, LimitNode)
            out = out.slice(0, wrapper.n)
    return out


def _execute_embed(
    node: EmbedNode, ctx: ExecutionContext, report: ExecutionReport
) -> Table:
    table = _execute(node.child, ctx, report)
    store, codes = _encode_column(table, node.column, node.model_name, ctx)
    return table.with_column(
        Column(
            Field(node.output_column, DataType.TENSOR, dim=store.model.dim),
            store.vectors[codes],
        )
    )


def _encode_column(
    table: Table,
    column: str,
    model_name: str,
    ctx: ExecutionContext,
    store: EmbeddingStore | None = None,
) -> tuple[EmbeddingStore, np.ndarray]:
    """A context-rich column as codes into the shared embed-once store
    (``store`` if given): ``store.vectors[codes]`` is its embedding, equal
    values share a code."""
    if store is None:
        store = ctx.store_for(model_name)
    return store, store.add_items(table.array(column).tolist())


def _embed_column(
    table: Table,
    column: str,
    model_name: str,
    ctx: ExecutionContext,
    store: EmbeddingStore | None = None,
) -> np.ndarray:
    """Embedding of a table column, via the shared embed-once store."""
    if table.schema.field(column).dtype is DataType.TENSOR:
        return table.array(column)
    store, codes = _encode_column(table, column, model_name, ctx, store)
    return store.vectors[codes]


def _join_keys(
    table: Table, column: str, model_name: str, ctx: ExecutionContext
) -> tuple[np.ndarray, np.ndarray | None, EmbeddingStore | None, np.ndarray | None]:
    """Left E-join input as one vector per *distinct* key.

    ``E_mu`` is a function of the value and both condition families are
    per left tuple, so ``R |><|_E S == R |><|_code (delta_code(R) |><|_E
    S)``: the join runs over the distinct codes and
    :meth:`~repro.core.result.JoinResult.expand_left` hands every row its
    key's pairs.  Returns ``(vectors, inverse, store, keys)``:
    ``inverse[r]`` is the key of row ``r`` — ``None`` when rows and keys
    coincide (tensor columns, which carry no codes, and columns without a
    repeated value) — and ``keys`` the keys' codes in the embed-once
    ``store``; both ``None`` for a tensor column.
    """
    if table.schema.field(column).dtype is DataType.TENSOR:
        return table.array(column), None, None, None
    store, codes = _encode_column(table, column, model_name, ctx)
    distinct, inverse = np.unique(codes, return_inverse=True)
    if len(distinct) == len(codes):
        return store.vectors[codes], None, store, codes
    return store.vectors[distinct], inverse, store, distinct


def _embedding_dim(table: Table, column: str, model) -> int:
    """Width of ``_embed_column(table, column, ...)`` without producing it."""
    field_ = table.schema.field(column)
    return field_.dim if field_.dtype is DataType.TENSOR else model.dim


def _index_for_right(
    node: LogicalNode, column: str, ctx: ExecutionContext
) -> tuple[VectorIndex, np.ndarray | None, Table] | None:
    """Index access path for the right input, if one is registered.

    Supports ``Scan(t)`` (no pre-filter) and ``Filter(Scan(t))`` (the
    relational predicate becomes a pre-filter bitmap over stored ids, as in
    Milvus).  Returns (index, bitmap, base_table).
    """
    if isinstance(node, ScanNode):
        index = ctx.indexes.get((node.table_name, column))
        if index is None:
            return None
        return index, None, ctx.catalog.get(node.table_name)
    if isinstance(node, FilterNode) and isinstance(node.child, ScanNode):
        index = ctx.indexes.get((node.child.table_name, column))
        if index is None:
            return None
        base = ctx.catalog.get(node.child.table_name)
        bitmap = validate_boolean(node.predicate, base)
        return index, bitmap, base
    return None


def _right_table_name(node: LogicalNode) -> str | None:
    """Base-table identity of an index-eligible right input, if any."""
    if isinstance(node, ScanNode):
        return node.table_name
    if isinstance(node, FilterNode) and isinstance(node.child, ScanNode):
        return node.child.table_name
    return None


def _execute_ejoin(
    node: EJoinNode, ctx: ExecutionContext, report: ExecutionReport
) -> Table:
    with span("planner.ejoin") as sp:
        n_strategies = len(report.strategies)
        n_fallbacks = len(report.fallbacks)
        out = _execute_ejoin_impl(node, ctx, report)
        joined = len(report.strategies) > n_strategies
        sp.set(
            strategy=report.strategies[-1] if joined else None,
            fallbacks=len(report.fallbacks) - n_fallbacks,
            rows=out.num_rows,
        )
        extra = report.join_stats[-1].extra if joined else {}
        if "memo_hits" in extra:
            sp.set(memo_hits=extra["memo_hits"], memo_misses=extra["memo_misses"])
        return out


def _execute_ejoin_impl(
    node: EJoinNode, ctx: ExecutionContext, report: ExecutionReport
) -> Table:
    left = _execute(node.left, ctx, report)
    model = ctx.models.get(node.model_name)
    indexed = _index_for_right(node.right, node.right_column, ctx)
    # One vector per distinct left key; only the per-pair baseline with no
    # index in sight never asks for them.
    left_vectors = inverse = store = keys = None
    if node.prefetch or indexed is not None:
        left_vectors, inverse, store, keys = _join_keys(
            left, node.left_column, node.model_name, ctx
        )

    def finish(result, right_table: Table) -> Table:
        report.strategies.append(result.stats.strategy)
        report.join_stats.append(result.stats)
        if inverse is not None:
            result = result.expand_left(inverse)
        return result.materialize(left, right_table)

    # --- index access path -------------------------------------------------
    index_table = _right_table_name(node.right)
    index_breaker_key = (
        None
        if index_table is None
        else (index_table, node.right_column, node.model_name, "index")
    )
    strategy = node.strategy_hint
    if strategy is None and indexed is not None:
        index, bitmap, base = indexed
        sel = 1.0 if bitmap is None else float(bitmap.mean()) if len(bitmap) else 0.0
        # A tripped index breaker feeds the cost model as "no index":
        # its cost is infinite, so the chooser lands on the exact scan.
        index_open = (
            index_breaker_key is not None
            and not breakers().allow(index_breaker_key)
        )
        decision = choose_access_path(
            len(left_vectors),
            len(index),
            _probe_k(node.condition),
            index.dim,
            selectivity=sel,
            params=ctx.cost_params,
            index_available=not index_open,
        )
        strategy = "index" if decision.choice == "index" else "tensor"

    if strategy == "index":
        if indexed is None:
            raise PlanError(
                f"EJoin strategy 'index' requires a registered index on the "
                f"right input column {node.right_column!r}"
            )
        index, bitmap, base = indexed
        try:
            result = index_join(
                left_vectors, index, node.condition, allowed=bitmap,
                engine=ctx.engine,
            )
        except Exception:
            # Probe failure: trip the breaker toward open and fall back
            # to the exact scan path below (trading speed, not accuracy).
            if index_breaker_key is None:
                raise
            breakers().record_failure(index_breaker_key)
            report.fallbacks.append("/".join(map(str, index_breaker_key)))
            strategy = "tensor"
        else:
            if index_breaker_key is not None:
                breakers().record_success(index_breaker_key)
            return finish(result, base)

    # --- scan access path ----------------------------------------------------
    right = _execute(node.right, ctx, report)
    if not node.prefetch:
        # Unoptimized logical plan: model invoked per pair, per row (the
        # paper's cautionary baseline).  Only sensible for tiny
        # demonstration inputs.  It joins the rows themselves — never
        # the distinct keys, even if an index that lost asked for them.
        result = naive_nlj(
            left.array(node.left_column).tolist(),
            right.array(node.right_column).tolist(),
            model,
            node.condition,
        )
        report.strategies.append(result.stats.strategy)
        report.join_stats.append(result.stats)
        return result.materialize(left, right)
    # A plain table scan on the right keeps its scan-ready state (unit
    # rows, encoded stores, the memo) in the context, valid for this
    # registration of the table; only other sources are embedded here.
    # Both sides embed with ``store``, the one the left keys came from,
    # even if the model is replaced while the query runs.
    store_key = _scan_store_key(node.right, node.right_column, node.model_name)
    right_vectors = (
        None
        if store_key is not None
        else _embed_column(right, node.right_column, node.model_name, ctx, store)
    )
    scan_strategy = strategy or "tensor"
    result = None
    precision = None
    if scan_strategy == "tensor":
        # The REPRO_PRECISION knob may substitute a reduced-precision
        # scan; quantized paths are additionally gated on their modelled
        # cost (including the fit/encode build unless a cached store
        # already amortized it).
        precision = _quantized_scan_decision(
            ctx,
            store_key,
            len(left_vectors),
            right.num_rows,
            _embedding_dim(right, node.right_column, model),
            node.condition,
        ).precision
    elif scan_strategy in ("tensor-int8", "tensor-pq"):
        # A forced quantized scan takes the same store cache, breaker
        # and fallback chain as a chosen one; it falls back to fp32.
        precision = scan_strategy.removeprefix("tensor-")
        scan_strategy = "tensor"
    # A plain scan's exact joins -- fp32, int8 and PQ -- score only the
    # rows its caps do not prove out; fp16, which the configured precision
    # puts in place of an fp32 "tensor" scan, keeps none.
    caps = None
    if store_key is not None and scan_strategy in ("tensor", "parallel-tensor") and not (
        precision == "fp32" and get_config().default_precision == "fp16"
    ):
        caps = ctx.cap_partition_for(store_key, right, store)
    if precision is not None:
        # The access path's circuit breaker walks the chain
        # pq -> int8 -> fp32 past open or failing paths.
        def quantized(precision: str):
            right_input = right_vectors
            if store_key is not None:
                right_input = ctx.quant_store_for(
                    store_key, right, precision, store
                )
            return ejoin(
                left_vectors,
                right_input,
                node.condition,
                strategy=f"tensor-{precision}",
                engine=ctx.engine,
                caps=caps,
            )

        result, _ = _quantized_scan(store_key, precision, report, quantized)
        if result is None and get_config().default_precision == "fp16":
            scan_strategy = "tensor-fp16"
    normalized = scan_strategy in ("tensor", "parallel-tensor")
    # A key's top-k pairs against one registration of a plain scan are a
    # function of the key: on the exact fp32 scan, the keys this
    # registration has joined are gathered from its memo and only the
    # rest are scanned.  The choices above are priced on every key, as
    # for a cold context, so a warm memo never changes the access path.
    memo = None
    if (
        result is None
        and normalized
        and keys is not None
        and store_key is not None
        and isinstance(node.condition, TopKCondition)
    ):
        memo = ctx.topk_memo_for(store_key, right, node.condition, store)
    if memo is not None:
        unknown = memo.unknown(keys)
        scanned = ejoin(
            normalize_rows(left_vectors[unknown], copy=False),
            ctx.normalized_matrix_for(store_key, right, store),
            node.condition,
            strategy=scan_strategy,
            assume_normalized=True,
            engine=ctx.engine,
            caps=caps,
        )
        with ctx.store_lock:
            memo.put(keys[unknown], scanned)
        n_scanned = int(np.count_nonzero(unknown))
        stats = scanned.stats
        stats.n_left = len(keys)
        stats.extra.update(memo_hits=len(keys) - n_scanned, memo_misses=n_scanned)
        report.strategies.append(stats.strategy)
        report.join_stats.append(stats)
        rows = keys if inverse is None else keys[inverse]
        return memo.expand(rows, stats).materialize(left, right)
    if result is None:
        flip = None
        if normalized:
            # Exactly ``normalize_rows`` of either side — what the scan
            # would compute itself — so joins stay bit-identical; a tensor
            # column under a plain scan shares the context's matrix.
            left_key = None
            if left.schema.field(node.left_column).dtype is DataType.TENSOR:
                left_key = _scan_store_key(
                    node.left, node.left_column, node.model_name
                )
            left_vectors = (
                normalize_rows(left_vectors)
                if left_key is None
                else ctx.normalized_matrix_for(left_key, left)
            )
            right_vectors = (
                normalize_rows(right_vectors)
                if store_key is None
                else ctx.normalized_matrix_for(store_key, right, store)
            )
            # A threshold join is symmetric (the optimizer puts the smaller
            # side right): without caps of its own it runs on the left side's.
            if caps is None and left_key and isinstance(node.condition, ThresholdCondition):
                flip = ctx.cap_partition_for(left_key, left)
        elif right_vectors is None:
            right_vectors = _embed_column(
                right, node.right_column, node.model_name, ctx, store
            )
        sides = (left_vectors, right_vectors)
        result = ejoin(
            *(sides if flip is None else sides[::-1]),
            node.condition,
            strategy=scan_strategy,
            assume_normalized=normalized,
            engine=ctx.engine,
            caps=caps if flip is None else flip,
        )
        if flip is not None:
            result.stats.n_left, result.stats.n_right = result.stats.n_right, result.stats.n_left
            result = replace(result, left_ids=result.right_ids, right_ids=result.left_ids).sorted()
    return finish(result, right)
