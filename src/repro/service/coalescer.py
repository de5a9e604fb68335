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
    #: (``coalesce.scan``, ``rescore``, ``materialize``) to every member's
    #: trace.
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
        return cls(node, wrappers, normalize_vector(query), trace=current_trace())

    @property
    def key(self) -> tuple[str, str, str]:
        child = self.node.child
        assert isinstance(child, ScanNode)
        return (child.table_name, self.node.column, self.node.model_name)


class _Group:
    """Requests that share one scan; its first request's thread leads.

    Only a queued group is waited on: a group that takes a free slot runs
    at once and no follower can join it, so it has no events."""

    __slots__ = ("requests", "go", "done")

    def __init__(self, leader: SharedScanRequest, queued: bool) -> None:
        self.requests = [leader]
        #: Set when a freed slot is handed to this queued group.
        self.go = threading.Event() if queued else None
        #: Set when its followers' results are in.
        self.done = threading.Event() if queued else None


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
            source = self._sources.get(key)
            if source is None:
                source = self._sources[key] = _Source()
            leads = True
            if source.running < slots:
                source.running += 1
                group = _Group(request, queued=False)
            elif source.queue and len(source.queue[-1].requests) < self.max_batch:
                group = source.queue[-1]
                group.requests.append(request)
                leads = False
            else:
                group = _Group(request, queued=True)
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
            if group.go is not None:
                group.go.wait()
            self._execute_group(key, requests)
        except Exception as exc:
            _fail(requests, exc)
        except BaseException as exc:
            # KeyboardInterrupt / SystemExit belong to this thread alone:
            # the followers get a typed error instead of a hang.
            _fail(requests[1:], ServiceError(f"shared scan leader interrupted: {exc!r}"))
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
            if group.done is not None:
                group.done.set()

    # ------------------------------------------------------------------
    # Shared scan execution (runs on the leader's thread)
    # ------------------------------------------------------------------
    def _execute_group(self, key: tuple, requests: list[SharedScanRequest]) -> None:
        # Only sampled requests are timed: they alone get spans.
        traced = [req for req in requests if req.trace is not None]
        scan_lap = _lap() if traced else None
        engine = self.engine
        table = engine.catalog.get(key[0])
        normalized, caps = engine.selection_source(key, table)

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

        group, fallbacks = None, 0
        try:
            group = select_group(
                normalized, [req.qvec for req in requests],
                [req.node.condition for req in requests],
                scan=None if self.shard_pool is None else shard_scan,
                budget_bytes=engine.executor.buffer_budget_bytes, caps=caps,
            )
            if traced:
                _attribute_scan(traced, len(requests), group, scan_lap, normalized.shape)
            # Each request's exact selection from the shared candidates, under
            # its own score column and wrappers — and each fails alone: a bad
            # wrapper (e.g. projecting a missing column) must not poison the
            # other queries that happened to share its scan.
            for i, req in enumerate(requests):
                marks = None if req.trace is None else [_lap()]
                candidates = 0
                try:
                    ids, scores, candidates, rescanned = group.select(i)
                    fallbacks += rescanned
                    if marks:
                        marks.append(_lap())
                    req.result = materialize_selection(
                        table, ids, scores, req.node.score_column, req.wrappers
                    )
                except Exception as exc:
                    req.error = exc
                if marks:
                    # The proof and the output table as two spans, so neither
                    # is charged the other's cost; a failed proof has no table.
                    marks.append(_lap())
                    rows = 0 if req.result is None else len(req.result)
                    laps = ("rescore", {"candidates": candidates}), ("materialize", {"rows": rows})
                    for (name, attrs), (w0, c0), (w1, c1) in zip(laps, marks, marks[1:]):
                        req.trace.add_span(name, start=w0, wall_s=w1 - w0, cpu_s=c1 - c0, **attrs)
        finally:
            with self._lock:  # the group's counts in one hold, however far it got
                stats = self.stats
                stats.groups += 1
                stats.coalesced_queries += len(requests)
                stats.max_batch = max(stats.max_batch, len(requests))
                if group is not None:
                    # Concurrent clients asking the same (hot) question share
                    # one scan row: the service-level embed-once prefetch.
                    stats.deduped_queries += len(requests) - group.unique
                    stats.shared_scan_blocks += group.blocks
                    stats.sharded_groups += group.fanned is not None
                stats.fallbacks += fallbacks


def _lap() -> tuple[float, float]:
    return time.perf_counter(), time.thread_time()


def _attribute_scan(traced, batch: int, group, scan_lap: tuple, shape) -> None:
    """Attribute a group's shared scan to its sampled members: it ran once
    on the leader's thread, but each sampled trace receives a completed
    foreign span describing the batch it rode in — and, when it fanned
    out, one per shard worker from when that worker began (``perf_counter``
    is one monotonic clock across processes)."""
    (scan_t0, scan_c0), shard_res = scan_lap, group.fanned
    scan_wall, scan_cpu = time.perf_counter() - scan_t0, time.thread_time() - scan_c0
    for req in traced:
        req.trace.add_span(
            "coalesce.scan", start=scan_t0, wall_s=scan_wall, cpu_s=scan_cpu, batch=batch,
            unique_vectors=group.unique, blocks=group.blocks, rows=shape[0],
            prescreen=group.prescreen, probe=group.probe, cells=group.cells,
            # fp32 rows scored per query vector: the relation once for a
            # dense pass, the kept rows and centres on caps.
            bytes_scanned=group.cells // group.unique * shape[1] * 4,
            shards=0 if shard_res is None else shard_res.n_shards,
        )
        if shard_res is not None:
            for sid, (began, wall) in enumerate(zip(shard_res.shard_starts, shard_res.shard_walls)):
                req.trace.add_span("shard.scan", start=began, wall_s=wall, cpu_s=wall, shard=sid)
