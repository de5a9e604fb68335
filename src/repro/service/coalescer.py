"""Cross-query shared-scan batching: the service-level tensor formulation.

The paper's economics argument is that embedding operators pay off when
model invocations and scans are *batched*; within a query the tensor join
does this with GEMM blocks.  The coalescing scheduler applies the same
amortization **across queries**: E-selections that hit the same
``(table, column, model)`` scan source while its scan slots are busy are
fused into one blocked scan whose operand stacks every query vector — the
relation streams once for the whole group instead of once per query — and
per-query candidates are demuxed from the shared score blocks by the
shared-scan core (:func:`~repro.core.scan.scan_candidates`), the same
function a serial :func:`~repro.core.eselect.eselect` runs as a group of
one.

Exactness: the shared scan is only a *prescreen*.  Each query's emitted
rows are re-scored with the shape-stable exact kernel and re-selected by
:func:`~repro.core.eselect.guarded_topk_select` /
:func:`~repro.core.eselect.exact_threshold_select` — the same contract
the serial scan uses — so coalesced results are bit-identical to serial
execution however requests happened to be grouped.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..algebra.logical import (
    ESelectNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
)
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.eselect import (
    PRESCREEN_MARGIN,
    TOPK_PRESCREEN_PAD,
    exact_threshold_select,
    guarded_topk_select,
)
from ..core.scan import (
    dense_score_block,
    merge_topk,
    scan_candidates,
    split_rows,
)
from ..errors import ServiceError, ShardError
from ..obs.trace import span
from ..relational.column import Column
from ..relational.schema import DataType, Field as SchemaField
from ..relational.table import Table


def unwrap_shared_scan(
    plan: LogicalNode,
) -> tuple[list[LogicalNode], ESelectNode] | None:
    """Match ``Project*/Limit*( ESelect( Scan(t) ) )`` plan shapes.

    Returns ``(wrappers outermost-first, eselect node)`` when the plan is
    a coalesceable E-selection over a base table scan, else ``None``.
    """
    wrappers: list[LogicalNode] = []
    node = plan
    while isinstance(node, (ProjectNode, LimitNode)):
        wrappers.append(node)
        node = node.child
    if not isinstance(node, ESelectNode):
        return None
    if not isinstance(node.child, ScanNode):
        return None
    if not isinstance(node.condition, (ThresholdCondition, TopKCondition)):
        return None
    return wrappers, node


@dataclass
class SharedScanRequest:
    """One query's slice of a shared scan group."""

    node: ESelectNode
    wrappers: list[LogicalNode]
    #: Unit-normalized query vector (the eselect query contract).
    qvec: np.ndarray
    tag: str
    result: Table | None = None
    error: Exception | None = None
    #: The submitting query's :class:`~repro.obs.trace.Trace` (or ``None``
    #: when unsampled).  The group *leader* runs the shared scan on its own
    #: thread, so follower traces cannot see it ambiently; the leader
    #: attributes the work back by appending completed *foreign* spans
    #: (``coalesce.scan``, ``rescore``) to every member's trace.
    trace: object | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        child = self.node.child
        assert isinstance(child, ScanNode)
        return (child.table_name, self.node.column, self.node.model_name)


class _Group:
    """Requests that share one scan; its first request's thread leads."""

    __slots__ = ("requests", "go", "done")

    def __init__(self, leader: SharedScanRequest) -> None:
        self.requests = [leader]
        #: Set when a freed slot is handed to this (queued) group.
        self.go = threading.Event()
        self.done = threading.Event()


def _fail(requests: list[SharedScanRequest], exc: Exception) -> None:
    """Give ``exc`` to every request that has no outcome yet."""
    for req in requests:
        if req.error is None and req.result is None:
            req.error = exc


class _Source:
    """Group-commit state of one scan source."""

    __slots__ = ("running", "queue")

    def __init__(self) -> None:
        self.running = 0  # group scans holding a slot
        self.queue: deque[_Group] = deque()  # groups waiting for one


@dataclass
class CoalescerStats:
    groups: int = 0
    coalesced_queries: int = 0
    #: Requests that shared a scan row with an identical concurrent query
    #: vector (the service-level embed-once win on hot traffic).
    deduped_queries: int = 0
    max_batch: int = 0
    shared_scan_blocks: int = 0
    fallbacks: int = 0
    #: Groups whose shared scan ran fanned out on the shard-process pool.
    sharded_groups: int = 0
    #: Groups that meant to shard but fell back in-process (pool error).
    shard_fallbacks: int = 0

    def snapshot(self) -> dict:
        return {
            "groups": self.groups,
            "coalesced_queries": self.coalesced_queries,
            "deduped_queries": self.deduped_queries,
            "max_batch": self.max_batch,
            "shared_scan_blocks": self.shared_scan_blocks,
            "fallbacks": self.fallbacks,
            "sharded_groups": self.sharded_groups,
            "shard_fallbacks": self.shard_fallbacks,
        }


class CoalescingScheduler:
    """Groups same-source E-selections into shared scans by backpressure.

    Group commit, no timer: per scan source at most ``n_threads`` (the
    engine's worker count) group scans run at once.  A request that finds
    a free slot leads a scan *immediately*; one that finds none joins the
    source's queued group (opening it, and so leading it, if need be; a
    group holds at most ``max_batch`` requests), and a finishing scan
    hands its slot to the oldest queued group.  An idle service therefore
    adds no latency, and batches grow exactly as fast as the queue does.
    Followers block on their group's event and pick up their demuxed
    result; which group a request landed in cannot change that result
    (exact rescore of a provable candidate superset).
    """

    def __init__(self, engine, *, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine  # repro.query.Engine
        self.max_batch = max_batch
        self._sources: dict[tuple, _Source] = {}
        self._lock = threading.Lock()
        self.stats = CoalescerStats()
        #: Optional :class:`~repro.shard.ShardPool`; when set, group scans
        #: big enough to clear the fan-out cost model run on worker
        #: processes instead of this thread (service-attached).
        self.shard_pool = None

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the coalescer lock."""
        with self._lock:
            return self.stats.snapshot()

    def queued(self) -> int:
        """Requests currently waiting for a scan slot."""
        with self._lock:
            return sum(
                len(group.requests)
                for source in self._sources.values()
                for group in source.queue
            )

    # ------------------------------------------------------------------
    # Submission path (runs on client threads)
    # ------------------------------------------------------------------
    def submit(self, request: SharedScanRequest) -> Table:
        """Lead, or join, a shared-scan group for this request's source.

        Blocks until the group executed; returns this request's demuxed,
        exact-rescored result (or re-raises its per-request error).
        """
        key = request.key
        slots = self.engine.executor.n_threads
        with self._lock:
            source = self._sources.setdefault(key, _Source())
            leads = True
            if source.running < slots:
                source.running += 1
                group = _Group(request)
                group.go.set()
            elif source.queue and len(source.queue[-1].requests) < self.max_batch:
                group = source.queue[-1]
                group.requests.append(request)
                leads = False
            else:
                group = _Group(request)
                source.queue.append(group)
        with span("coalesce.wait") as sp:
            if leads:
                self._lead(key, group)
            else:
                group.done.wait()
            sp.set(leader=leads, batch=len(group.requests))
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _lead(self, key: tuple, group: _Group) -> None:
        """Scan for ``group`` once it holds a slot, then pass the slot on."""
        requests = group.requests
        try:
            group.go.wait()
            self._execute_group(key, requests)
        except Exception as exc:
            _fail(requests, exc)
        except BaseException as exc:
            # KeyboardInterrupt / SystemExit belong to this thread alone:
            # the followers get a typed error instead of a hang.
            _fail(
                requests[1:],
                ServiceError(f"shared scan leader interrupted: {exc!r}"),
            )
            raise
        finally:
            with self._lock:
                source = self._sources[key]
                if group in source.queue:  # interrupted before its turn
                    source.queue.remove(group)
                elif source.queue:
                    source.queue.popleft().go.set()
                else:
                    source.running -= 1
                    if not source.running:
                        del self._sources[key]
            group.done.set()

    # ------------------------------------------------------------------
    # Shared scan execution (runs on the leader's thread)
    # ------------------------------------------------------------------
    def _execute_group(
        self, key: tuple, requests: list[SharedScanRequest]
    ) -> None:
        scan_t0 = time.perf_counter()
        scan_c0 = time.thread_time()
        table_name, column, model_name = key
        ctx = self.engine.context(tag=f"svc/scan/{table_name}.{column}")
        table = ctx.catalog.get(table_name)
        normalized = ctx.normalized_matrix_for(key, table)
        n = len(normalized)

        # Deduplicate query vectors: concurrent clients asking the same
        # (hot) question share one scan row — the service-level analogue
        # of the embed-once prefetch.  ``urow_of[i]`` maps request i to
        # its unique scan row.
        uniq_index: dict[bytes, int] = {}
        urow_of = [
            uniq_index.setdefault(req.qvec.tobytes(), len(uniq_index))
            for req in requests
        ]
        queries = np.empty((len(uniq_index), normalized.shape[1]), np.float32)
        for urow, req in zip(urow_of, requests):
            queries[urow] = req.qvec
        with self._lock:
            self.stats.groups += 1
            self.stats.coalesced_queries += len(requests)
            self.stats.max_batch = max(self.stats.max_batch, len(requests))
            self.stats.deduped_queries += len(requests) - len(queries)

        # Unique scan rows needing top-k candidates / threshold hits (a
        # row can need both when duplicate vectors carry mixed conditions).
        kmax = 0
        thr_floor: dict[int, float] = {}
        topk_set: set[int] = set()
        for urow, req in zip(urow_of, requests):
            condition = req.node.condition
            if isinstance(condition, TopKCondition):
                topk_set.add(urow)
                kmax = max(kmax, condition.k)
            else:
                bound = condition.threshold - PRESCREEN_MARGIN
                thr_floor[urow] = min(thr_floor.get(urow, bound), bound)
        topk_rows = sorted(topk_set)
        heap_pos = {urow: j for j, urow in enumerate(topk_rows)}
        thr_rows = sorted(thr_floor)
        pool_pos = {urow: j for j, urow in enumerate(thr_rows)}
        thresholds = np.asarray(
            [thr_floor[urow] for urow in thr_rows], dtype=np.float32
        )
        kpad = max(1, min(n, kmax + TOPK_PRESCREEN_PAD))

        # Fan out to the shard-process pool when one is attached and the
        # cost model says the table is big enough to amortize dispatch.
        # The pool returns the same artifacts the in-process pass builds
        # (per-row candidates with floors + threshold hits), so everything
        # downstream — floor guard, exact rescore, demux — is shared, and
        # a pool failure (ShardError) degrades to the in-process scan
        # rather than failing queries.
        shard_res = None
        if self.shard_pool is not None:
            try:
                shard_res = self.shard_pool.scan_candidates(
                    key,
                    queries,
                    n_rows=n,
                    topk_rows=topk_rows,
                    kpad=kpad,
                    thr_rows=thr_rows,
                    thr_floors=thresholds,
                )
            except ShardError:
                with self._lock:
                    self.stats.shard_fallbacks += 1
        if shard_res is not None:
            # The pool's floors include the store's score error bound, so
            # the demux guard stays sound for quantized shard stores too.
            heap_ids, heap_floor = shard_res.heap_ids, shard_res.heap_floor
            thr_hits, blocks = shard_res.thr_hits, shard_res.blocks
        else:
            scan = scan_candidates(
                dense_score_block(normalized, queries),
                0, n, len(queries), topk_rows, kpad, thr_rows, thresholds,
                budget_bytes=ctx.engine.buffer_budget_bytes,
            )
            heap_ids, heap_floor = merge_topk(
                [scan.triples], len(topk_rows), kpad
            )
            hit_rows, hit_ids, _ = scan.hits
            thr_hits = split_rows(hit_rows, hit_ids, len(thr_rows))
            blocks = scan.blocks
        with self._lock:
            self.stats.shared_scan_blocks += blocks
            if shard_res is not None:
                self.stats.sharded_groups += 1

        # Attribute the shared scan to every member query: the scan ran
        # once on the leader's thread, but each sampled trace receives a
        # completed foreign span describing the batch it rode in.
        scan_wall = time.perf_counter() - scan_t0
        scan_cpu = time.thread_time() - scan_c0
        for req in requests:
            if req.trace is not None:
                req.trace.add_span(
                    "coalesce.scan",
                    wall_s=scan_wall,
                    cpu_s=scan_cpu,
                    batch=len(requests),
                    unique_vectors=len(queries),
                    blocks=blocks,
                    rows=n,
                    bytes_scanned=int(n) * int(normalized.shape[1]) * 4,
                    shards=0 if shard_res is None else shard_res.n_shards,
                )
                if shard_res is not None:
                    # One foreign span per shard worker: the member trace
                    # shows where the fanned-out scan actually spent its
                    # time, even though the work ran in other processes.
                    for sid, wall in enumerate(shard_res.shard_walls):
                        req.trace.add_span(
                            "shard.scan",
                            wall_s=wall,
                            cpu_s=wall,
                            shard=sid,
                        )

        # Per-request demux: exact selection from the shared candidates.
        # Duplicate vectors share candidates but each request applies its
        # own condition, score column, and wrappers — and each fails
        # alone: a bad wrapper (e.g. projecting a missing column) must
        # not poison the other queries that happened to share its scan.
        for urow, req in zip(urow_of, requests):
            condition = req.node.condition
            demux_t0 = time.perf_counter()
            demux_c0 = time.thread_time()
            candidates = 0
            try:
                if isinstance(condition, ThresholdCondition):
                    cand = thr_hits[pool_pos[urow]]
                    candidates = len(cand)
                    ids, scores = exact_threshold_select(
                        normalized, cand, req.qvec, condition.threshold
                    )
                else:
                    j = heap_pos[urow]
                    candidates = len(heap_ids[j])
                    ids, scores, rescanned = guarded_topk_select(
                        normalized, heap_ids[j], float(heap_floor[j]),
                        req.qvec, condition,
                    )
                    if rescanned:
                        with self._lock:
                            self.stats.fallbacks += 1
                req.result = materialize_selection(
                    table, ids, scores, req.node.score_column, req.wrappers
                )
            except Exception as exc:
                req.error = exc
            if req.trace is not None:
                req.trace.add_span(
                    "rescore",
                    wall_s=time.perf_counter() - demux_t0,
                    cpu_s=time.thread_time() - demux_c0,
                    candidates=candidates,
                    rows=0 if req.result is None else len(req.result),
                )


def materialize_selection(
    table: Table,
    ids: np.ndarray,
    scores: np.ndarray,
    score_column: str,
    wrappers: list[LogicalNode],
) -> Table:
    """Mirror the planner's E-selection materialization + plan wrappers.

    Shared by the coalescer's per-request demux and the QoS layer's
    degraded (quantized prescreen-only) execution path, so both produce
    tables shaped exactly like the serial planner's output.
    """
    out = table.take(ids).with_column(
        Column(SchemaField(score_column, DataType.FLOAT32), scores)
    )
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, ProjectNode):
            out = out.select(list(wrapper.names))
        else:
            assert isinstance(wrapper, LimitNode)
            out = out.slice(0, wrapper.n)
    return out
