"""Cross-query shared-scan batching: the service-level tensor formulation.

The paper's economics argument is that embedding operators pay off when
model invocations and scans are *batched*; within a query the tensor join
does this with GEMM blocks.  The coalescing scheduler applies the same
amortization **across queries**: E-selections that hit the same
``(table, column, model)`` scan source while its scan slots are busy are
fused into one blocked scan whose operand stacks every query vector — the
relation streams once for the whole group instead of once per query — and
each query's exact answer is selected from the shared candidates by
:func:`~repro.core.eselect.select_group`, the same function a serial
:func:`~repro.core.eselect.eselect` runs as a group of one.

This module only schedules: which requests share a scan, on whose thread,
counted and traced for whom, and failing alone.  What makes a served
selection exact — row sets, prescreen margins, the exact re-score and
its completeness proof — is ``select_group``'s, so coalesced results are
bit-identical to serial execution however requests happened to be
grouped.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from ..algebra.logical import ESelectNode, LogicalNode, ScanNode
from ..algebra.physical_planner import (
    eselect_query,
    materialize_selection,
    unwrap_selection,
)
from ..core import select_group
from ..errors import ServiceError, ShardError
from ..obs.trace import current_trace, span
from ..relational.table import Table
from ..vector.norms import normalize_vector


@dataclass
class SharedScanRequest:
    """One query's slice of a shared scan group."""

    node: ESelectNode
    wrappers: list[LogicalNode]
    #: Unit-normalized query vector (the eselect query contract).
    qvec: np.ndarray
    result: Table | None = None
    error: Exception | None = None
    #: The submitting query's :class:`~repro.obs.trace.Trace` (or ``None``
    #: when unsampled).  The group *leader* runs the shared scan on its own
    #: thread, so follower traces cannot see it ambiently; the leader
    #: attributes the work back by appending completed *foreign* spans
    #: (``coalesce.scan``, ``rescore``) to every member's trace.
    trace: object | None = None

    @classmethod
    def of(cls, plan: LogicalNode, store_for) -> "SharedScanRequest | None":
        """The calling query's request, if ``plan`` is a coalesceable
        E-selection of one well-formed query vector (anything else takes
        the serial path, which raises that path's usual errors)."""
        match = unwrap_selection(plan)
        if match is None:
            return None
        wrappers, node = match
        query = eselect_query(node, store_for)
        if query.ndim != 1 or not np.isfinite(query).all():
            return None
        qvec = normalize_vector(np.asarray(query, dtype=np.float32))
        return cls(node, wrappers, qvec, trace=current_trace())

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
        return asdict(self)


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

        with self._lock:
            self.stats.groups += 1
            self.stats.coalesced_queries += len(requests)
            self.stats.max_batch = max(self.stats.max_batch, len(requests))

        # Fan out to the shard-process pool when one is attached and its
        # cost model says the table is big enough to amortize dispatch; a
        # pool failure (ShardError) degrades to the in-process scan rather
        # than failing queries.
        def shard_scan(queries, **wanted):
            try:
                return self.shard_pool.scan_candidates(key, queries, **wanted)
            except ShardError:
                with self._lock:
                    self.stats.shard_fallbacks += 1

        group = select_group(
            normalized,
            [req.qvec for req in requests],
            [req.node.condition for req in requests],
            scan=None if self.shard_pool is None else shard_scan,
            budget_bytes=ctx.engine.buffer_budget_bytes,
        )
        shard_res = group.fanned
        with self._lock:
            # Concurrent clients asking the same (hot) question share one
            # scan row — the service-level analogue of the embed-once
            # prefetch.
            self.stats.deduped_queries += len(requests) - group.unique
            self.stats.shared_scan_blocks += group.blocks
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
                    unique_vectors=group.unique,
                    blocks=group.blocks,
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

        # Each request's exact selection from the shared candidates, under
        # its own score column and wrappers — and each fails alone: a bad
        # wrapper (e.g. projecting a missing column) must not poison the
        # other queries that happened to share its scan.
        for i, req in enumerate(requests):
            demux_t0 = time.perf_counter()
            demux_c0 = time.thread_time()
            candidates = 0
            try:
                ids, scores, candidates, rescanned = group.select(i)
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
