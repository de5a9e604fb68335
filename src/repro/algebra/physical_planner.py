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
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.caps import SELECTIONS_PER_BUILD, CapPartition, build_caps
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.cost_model import CostParams, choose_access_path
from ..core.eselect import eselect
from ..core.index_join import DEFAULT_PROBE_K, index_join
from ..core.join import STRATEGIES, ejoin, run_scan
from ..core.nlj import naive_nlj
from ..core.quantized_join import QuantizedRelation
from ..core.result import TopKMemo
from ..core.tensor_join import unit_rows
from ..embedding.cache import EmbeddingStore, shared_store
from ..embedding.registry import ModelRegistry
from ..engine import ExecutionEngine
from ..errors import BufferBudgetError, JoinError, PlanError
from ..index.base import VectorIndex
from ..obs.trace import span
from ..reliability.breaker import BreakerRegistry
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


class SourceState:
    """Derived state of every plain ``Scan(table)`` source, and the one
    version rule it follows.  An :class:`~repro.query.builder.Engine`
    owns one, so state built by one query amortizes across every later
    query and concurrent client.

    An entry is keyed ``(table, column, model, representation)`` — the
    representation one of ``"unit"`` (the unit-row matrix), ``"caps"``
    (its cap partition), ``"int8"`` (the quantized store) and
    ``"memo"`` (the top-k memo) — and is ``(source table, state,
    embed-once store, tag)``.  It is valid for *one registration* of the
    table under *one model object*: a lookup hits iff the entry was
    derived from this very :class:`~repro.relational.table.Table` — the
    one the caller executed and will materialize rows from — with this
    very embed-once store (:meth:`store_for` makes a new one when the
    model registered under the name is replaced), and for an equal
    ``tag`` (the memo's condition).  Identity compares, no pass over the
    column: a new table object replaces the entry even when it wraps the
    same, mutated buffer; registering the same object again rebuilds
    nothing; and state never pairs with rows of another registration or
    vectors of another model.

    Builds hold a per-entry lock, so clients racing a cold source build
    it once while unrelated sources never serialize; :attr:`lock`
    guards the bookkeeping (and a memo's ``put``).  An entry built only
    once its uses have paid for it (the caps of a selection source)
    counts those uses per registration under the same rule (:meth:`tally`).
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._entries: dict[tuple, tuple] = {}
        self._tallies: dict[tuple, tuple] = {}
        self._build_locks: dict[tuple, threading.Lock] = {}
        self._embed_stores: dict[str, EmbeddingStore] = {}

    def store_for(self, model_name: str, model) -> EmbeddingStore:
        """The embed-once store of ``model``, registered as ``model_name``."""
        return shared_store(self._embed_stores, model_name, model, self.lock)

    def get(self, key: tuple, table: Table, store: EmbeddingStore, derive=None, tag=None):
        """The state under ``key`` valid for ``table`` and ``store`` (and
        ``tag``) — ``derive(store)`` made and kept on a miss.  With no
        ``derive`` it only looks: a miss is ``None``, and nothing is built."""
        with self._build_lock(key) if derive else nullcontext():
            with self.lock:
                entry = self._entries.get(key)
            if not _valid(entry, table, store, tag):
                if derive is None:
                    return None
                entry = (table, derive(store), store, tag)
                with self.lock:
                    self._entries[key] = entry
            return entry[1]

    def tally(self, key: tuple, table: Table, store: EmbeddingStore) -> int:
        """One more use of the state under ``key`` that is not built for
        ``table`` and ``store`` yet: how many there have been (``0``: it is
        built).  A new table object or store starts the count again."""
        with self.lock:
            if _valid(self._entries.get(key), table, store, None):
                return 0
            # Kept like an entry, the count in the state's place.
            tally = self._tallies.get(key)
            n = tally[1] + 1 if _valid(tally, table, store, None) else 1
            self._tallies[key] = (table, n, store, None)
            return n

    def entries(self, representation: str) -> dict[tuple, tuple]:
        """``(table, column, model) -> entry`` of one representation: a copy."""
        with self.lock:
            return {
                key[:3]: entry
                for key, entry in self._entries.items()
                if key[3] == representation
            }

    def _build_lock(self, key: tuple) -> threading.Lock:
        with self.lock:
            lock = self._build_locks.get(key)
            if lock is None:
                lock = self._build_locks[key] = threading.Lock()
            return lock


def _valid(entry: tuple | None, table: Table, store: EmbeddingStore, tag) -> bool:
    """Whether ``entry`` was derived from this very ``table`` and ``store``
    for an equal ``tag`` (the tail's ``==``: the store by identity, the tag
    by value)."""
    return entry is not None and entry[0] is table and entry[2:] == (store, tag)


@dataclass
class ExecutionContext:
    """Everything physical planning needs: data, models, indexes, costs,
    the executor, and the access paths' derived state and circuit
    breakers.  :class:`~repro.query.builder.Engine` is one: every query
    on an engine runs against the engine itself."""

    catalog: Catalog
    models: ModelRegistry = field(default_factory=ModelRegistry)
    cost_params: CostParams = field(default_factory=CostParams)
    # The rest is built with the context, never passed in: indexes come
    # through register_index, and no two contexts share their state.
    #: (table_name, column_name) -> built vector index over that column.
    indexes: dict[tuple[str, str], VectorIndex] = field(
        default_factory=dict, init=False
    )
    #: Morsel-driven executor every engine-executed physical operator
    #: schedules on (thread count and buffer budget read from the config
    #: when the context is built); assign one to pin it.
    executor: ExecutionEngine = field(
        default_factory=ExecutionEngine, init=False
    )
    #: Access-path state of every scan source and the embed-once stores.
    sources: SourceState = field(default_factory=SourceState, init=False)
    #: Circuit breakers of the access paths.
    breakers: BreakerRegistry = field(
        default_factory=BreakerRegistry, init=False
    )
    #: Counter of index registrations (a result-cache key component).
    index_epoch: int = field(default=0, init=False)

    def embed_store_for(self, model_name: str) -> EmbeddingStore:
        """The embed-once store of the model registered as ``model_name``."""
        return self.sources.store_for(model_name, self.models.get(model_name))

    def register_index(
        self, table_name: str, column: str, index: VectorIndex
    ) -> None:
        """Attach a built vector index to ``table_name.column``.

        Bumps :attr:`index_epoch`: a new index can change the physical
        access path (and thus results, for approximate indexes), so any
        cached results keyed on the epoch stop matching.
        """
        self.catalog.get(table_name)  # validate the table exists
        self.indexes[(table_name, column)] = index
        self.index_epoch += 1

    def _source(
        self, key: tuple, representation: str, table: Table,
        store: EmbeddingStore | None, derive, tag=None,
    ):
        """:meth:`SourceState.get` for the ``(table, column, model)``
        source ``key``; ``store`` defaults to the registered model's."""
        if store is None:
            store = self.embed_store_for(key[2])
        return self.sources.get((*key, representation), table, store, derive, tag)

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

        return self._source(key, method, table, store, build)

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
        return self._source(
            key, "unit", table, store,
            lambda store: normalize_rows(
                _embed_column(table, key[1], key[2], self, store)
            ),
        )

    def cap_partition_for(
        self, key: tuple, table: Table, store=None, *, cached: bool = False
    ) -> CapPartition | None:
        """The cap partition (:func:`~repro.core.caps.build_caps`) of a scan
        source's unit-row matrix, valid for what that matrix is; ``None``:
        the source declined one, or (``cached``) none is built yet."""
        derive = None if cached else (
            lambda store: self._build_caps(key, self.normalized_matrix_for(key, table, store))
        )
        return self._source(key, "caps", table, store, derive)

    def _build_caps(self, key: tuple, unit: np.ndarray) -> CapPartition | None:
        """:func:`~repro.core.caps.build_caps` of a source's unit rows; the
        partition makes its cap-ordered copy under the source's build lock."""
        part = build_caps(unit)
        return part and replace(part, lock=self.sources._build_lock((*key, "caps")))

    def selection_source(self, key: tuple, table: Table) -> tuple[np.ndarray, CapPartition | None]:
        """What a selection over a scan source runs on: its unit rows and
        the cap partition to prescreen on, the ``"caps"`` entry once one
        has landed (whose rows are the unit rows).  Until then each call is
        one dense selection against this registration, and the
        :data:`~repro.core.caps.SELECTIONS_PER_BUILD`-th starts the build
        on a daemon thread, off every request's path; a build that raises
        leaves this registration dense."""
        store = self.embed_store_for(key[2])
        part = self.cap_partition_for(key, table, store, cached=True)
        if part is not None:
            return part.unit, part
        unit = self.normalized_matrix_for(key, table, store)
        if self.sources.tally((*key, "caps"), table, store) == SELECTIONS_PER_BUILD:

            def build() -> None:
                try:
                    self._source(key, "caps", table, store, lambda _: self._build_caps(key, unit))
                except Exception:  # the registration stays dense
                    pass

            threading.Thread(target=build, name="repro-caps-build", daemon=True).start()
        return unit, None

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
        if too_wide or store is not self.embed_store_for(key[2]):
            return None
        return self._source(
            key, "memo", table, store, lambda _: TopKMemo(width),
            tag=(condition.k, condition.min_similarity),
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
        if isinstance(node.child, EJoinNode):  # gather only what survives
            table = _execute_ejoin(node.child, ctx, report, node.names)
        else:
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
    # A plain table scan source keeps its unit rows in the context; only
    # other sources embed here.
    store_key = _scan_store_key(node.child, node.column, node.model_name)
    shared, caps = store_key is not None, None
    if not shared:
        vectors = _embed_column(table, node.column, node.model_name, ctx)
    query = eselect_query(node, ctx.embed_store_for)
    with span("planner.eselect") as sp:
        # Scan sources share one normalize-once matrix across queries and
        # clients; eselect's exact-rescore contract makes the shared and
        # inline-normalized paths bit-identical.
        # They prescreen on the source's caps once those have landed.
        if shared:
            vectors, caps = ctx.selection_source(store_key, table)
        result = eselect(vectors, query, node.condition, assume_normalized=shared, caps=caps)
        report.strategies.append(result.stats.strategy)
        report.join_stats.append(result.stats)
        sp.set(
            strategy=result.stats.strategy, rows=table.num_rows,
            prescreen=result.stats.extra["prescreen"], probe=result.stats.extra["probe"],
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
        store = ctx.embed_store_for(model_name)
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


def _index_for_right(
    node: LogicalNode, column: str, ctx: ExecutionContext
) -> tuple[VectorIndex, np.ndarray | None, Table] | None:
    """Index access path for the right input, if one is registered.

    Supports ``Scan(t)`` (no pre-filter) and ``Filter(Scan(t))`` (the
    relational predicate becomes a pre-filter bitmap over stored ids, as in
    Milvus).  Returns (index, bitmap, base_table).
    """
    name = _right_table_name(node)
    index = None if name is None else ctx.indexes.get((name, column))
    if index is None:
        return None
    base = ctx.catalog.get(name)
    bitmap = None if isinstance(node, ScanNode) else validate_boolean(node.predicate, base)
    return index, bitmap, base


def _right_table_name(node: LogicalNode) -> str | None:
    """Base-table identity of an index-eligible right input, if any."""
    if isinstance(node, ScanNode):
        return node.table_name
    if isinstance(node, FilterNode) and isinstance(node.child, ScanNode):
        return node.child.table_name
    return None


def _execute_ejoin(
    node: EJoinNode, ctx: ExecutionContext, report: ExecutionReport, names=None
) -> Table:
    """The E-join's output table; ``names``, a projection above it, are the
    only output columns it gathers."""
    with span("planner.ejoin") as sp:
        n_strategies = len(report.strategies)
        n_fallbacks = len(report.fallbacks)
        out = _execute_ejoin_impl(node, ctx, report, names, sp)
        joined = len(report.strategies) > n_strategies
        sp.set(
            strategy=report.strategies[-1] if joined else None,
            access="index" if joined and report.strategies[-1].startswith("index") else "scan",
            fallbacks=len(report.fallbacks) - n_fallbacks,
            rows=out.num_rows,
        )
        extra = report.join_stats[-1].extra if joined else {}
        if "memo_hits" in extra:
            sp.set(memo_hits=extra["memo_hits"], memo_misses=extra["memo_misses"])
        return out


def _execute_ejoin_impl(
    node: EJoinNode, ctx: ExecutionContext, report: ExecutionReport, names, sp
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
        return result.materialize(left, right_table, names=names)

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
            and not ctx.breakers.allow(index_breaker_key)
        )
        # A plain source whose cap partition is cached scans on it; one not
        # built yet is not built to be priced.
        store_key = _scan_store_key(node.right, node.right_column, node.model_name)
        part = store_key and ctx.cap_partition_for(store_key, base, store, cached=True)
        decision = choose_access_path(
            len(left_vectors),
            len(index),
            _probe_k(node.condition),
            index.dim,
            selectivity=sel,
            params=ctx.cost_params,
            index_available=not index_open,
            caps=part.probe_terms(node.condition) if part else None,
            index_lists=index.probe_terms(),
        )
        strategy = "index" if decision.choice == "index" else "tensor"
        sp.set(cost_scan=decision.scan_cost, cost_index=decision.index_cost)
        if decision.caps_share is not None:
            sp.set(caps_share=decision.caps_share)

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
                engine=ctx.executor,
            )
        except Exception:
            # Probe failure: trip the breaker toward open and fall back
            # to the exact scan path below (trading speed, not accuracy).
            if index_breaker_key is None:
                raise
            ctx.breakers.record_failure(index_breaker_key)
            report.fallbacks.append("/".join(map(str, index_breaker_key)))
            strategy = "tensor"
        else:
            if index_breaker_key is not None:
                ctx.breakers.record_success(index_breaker_key)
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
        return result.materialize(left, right, names=names)
    # A plain table scan on the right keeps its scan-ready state (unit
    # rows, encoded stores, caps, the memo) in the context, valid for this
    # registration of the table; only other sources are embedded here.
    # Both sides embed with ``store``, the one the left keys came from,
    # even if the model is replaced while the query runs.
    store_key = _scan_store_key(node.right, node.right_column, node.model_name)
    right_vectors = (
        None
        if store_key is not None
        else _embed_column(right, node.right_column, node.model_name, ctx, store)
    )
    strategy = strategy or "tensor"
    access, precision, _ = STRATEGIES[strategy]
    if access != "scan":
        if right_vectors is None:
            right_vectors = _embed_column(right, node.right_column, node.model_name, ctx, store)
        result = ejoin(
            left_vectors, right_vectors, node.condition, strategy=strategy, engine=ctx.executor
        )
        return finish(result, right)
    # Every scan of a plain source -- fp32 and int8 -- scores only the
    # rows its caps do not prove out.
    caps = None if store_key is None else ctx.cap_partition_for(store_key, right, store)

    def scan(left_rows, representation, precision: str, caps=caps):
        return run_scan(
            strategy, precision, left_rows, representation, node.condition,
            engine=ctx.executor, caps=caps,
        )

    result = None
    # A hinted int8 scan, unless its access path's breaker is open or it
    # fails: then the exact fp32 scan below answers.  An uncacheable
    # source has no breaker.
    breaker_key = None if store_key is None else (*store_key, precision)
    if precision != "fp32" and (breaker_key is None or ctx.breakers.allow(breaker_key)):
        try:
            if not right.num_rows:  # no rows to encode: nothing to scan
                codes = unit_rows(np.empty((0, 0), np.float32))
            elif store_key is None:
                codes = QuantizedRelation.build(right_vectors, precision).representation()
            else:
                codes = ctx.quant_store_for(store_key, right, precision, store).representation()
            result = scan(left_vectors, codes, precision)
        except Exception as exc:
            # An input error (a NaN row, mismatched dimensions) is not the
            # path's failure: the fp32 scan raises it again.  A budget too
            # small is the path's -- its candidate state is the larger.
            if isinstance(exc, JoinError) and not isinstance(exc, BufferBudgetError):
                raise
            if breaker_key is not None:
                ctx.breakers.record_failure(breaker_key)
                report.fallbacks.append("/".join(map(str, breaker_key)))
        else:
            if breaker_key is not None:
                ctx.breakers.record_success(breaker_key)
    if result is not None:
        return finish(result, right)
    # A key's top-k pairs against one registration of a plain scan are a
    # function of the key: on the exact fp32 scan, the keys this
    # registration has joined are gathered from its memo and only the
    # rest are scanned.  The choices above are priced on every key, as
    # for a cold context, so a warm memo never changes the access path.
    memo = None
    if keys is not None and store_key is not None and isinstance(node.condition, TopKCondition):
        memo = ctx.topk_memo_for(store_key, right, node.condition, store)
    if memo is not None:
        unknown = memo.unknown(keys)
        scanned = scan(
            normalize_rows(left_vectors[unknown], copy=False),
            unit_rows(ctx.normalized_matrix_for(store_key, right, store)),
            "fp32",
        )
        with ctx.sources.lock:
            memo.put(keys[unknown], scanned)
        n_scanned = int(np.count_nonzero(unknown))
        stats = scanned.stats
        stats.n_left = len(keys)
        stats.extra.update(memo_hits=len(keys) - n_scanned, memo_misses=n_scanned)
        report.strategies.append(stats.strategy)
        report.join_stats.append(stats)
        rows = keys if inverse is None else keys[inverse]
        return memo.expand(rows, stats).materialize(left, right, names=names)
    # Exactly ``normalize_rows`` of either side — what the scan would
    # compute itself — so joins stay bit-identical; a tensor column under
    # a plain scan shares the context's matrix.
    left_key = None
    if left.schema.field(node.left_column).dtype is DataType.TENSOR:
        left_key = _scan_store_key(node.left, node.left_column, node.model_name)
    left_n = (
        normalize_rows(left_vectors)
        if left_key is None
        else ctx.normalized_matrix_for(left_key, left)
    )
    right_n = (
        normalize_rows(right_vectors)
        if store_key is None
        else ctx.normalized_matrix_for(store_key, right, store)
    )
    # A threshold join is symmetric (the optimizer puts the smaller side
    # right): without caps of its own it runs on the left side's.
    flip = None
    if caps is None and left_key and isinstance(node.condition, ThresholdCondition):
        flip = ctx.cap_partition_for(left_key, left)
    if flip is None:
        return finish(scan(left_n, unit_rows(right_n), "fp32"), right)
    result = scan(right_n, unit_rows(left_n), "fp32", caps=flip)
    result.stats.n_left, result.stats.n_right = result.stats.n_right, result.stats.n_left
    result = replace(result, left_ids=result.right_ids, right_ids=result.left_ids).sorted()
    return finish(result, right)
