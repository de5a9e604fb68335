"""Persistent shard-worker pool: fan the coalesced scan across processes.

The pool owns everything multiprocess about sharded execution:

* **publishing** — each (table, column, model) scan source is normalized
  once, cut into contiguous row ranges by a
  :class:`~repro.relational.catalog.ShardMap` of the very matrix
  published, and its fp32 unit rows are
  copied into one shared-memory segment workers map zero-copy;
* **dispatch** — one scan task per worker, carried by the flight
  recorder's bit-exact wire format over pipes;
* **merging** — every shard returns its top-k candidate triples and they
  fold under one total order (score desc, id asc;
  :func:`~repro.core.scan.merge_topk`), so the candidate set is
  independent of reply arrival order and identical to a serial scan's;
* **self-healing** — worker processes, unlike threads, can die, so the
  pool watches them: heartbeats mark progress, silent workers past the
  stall tolerance are terminated, dead workers are respawned with every
  published store replayed, and their task is re-dispatched.  Past the
  respawn budget the pool raises :class:`~repro.errors.ShardError`,
  which callers treat as "fall back to the exact in-process scan".

Exactness: workers only produce candidate supersets.  The front door's
margin guard and float64 exact rescore make the final rows a pure
function of (data, query, condition) — bit-identical to serial.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..core.cost_model import choose_shard_fanout
from ..core.scan import merge_topk
from ..errors import ShardError
from ..relational.catalog import ShardMap
from .envelope import make_task, open_task
from .store import SegmentOwner
from .worker import worker_main


@dataclass
class ShardScanResult:
    """Merged candidates from one fanned-out scan."""

    heap_ids: list[np.ndarray]    # per top-k row, candidate ids best first
    heap_floor: np.ndarray        # (n_topk_rows,) approximate dropped-cell floor
    thr_hits: list[np.ndarray]    # per threshold row, ascending global ids
    n_shards: int
    blocks: int
    rows: int
    shard_walls: list[float]      # per-shard worker-side scan seconds
    shard_starts: list[float]     # when each worker began (``perf_counter``)


class _Worker:
    __slots__ = ("proc", "conn", "shard_id")

    def __init__(self, proc, conn, shard_id: int) -> None:
        self.proc = proc
        self.conn = conn
        self.shard_id = shard_id


@dataclass
class ShardPoolStats:
    scans: int = 0
    declined: int = 0
    publishes: int = 0
    tasks: int = 0
    rows_scanned: int = 0
    errors: int = 0
    stalls: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    reenqueued: int = 0

    def snapshot(self) -> dict:
        return {
            "scans": self.scans,
            "declined": self.declined,
            "publishes": self.publishes,
            "tasks": self.tasks,
            "rows_scanned": self.rows_scanned,
            "errors": self.errors,
            "stalls": self.stalls,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "reenqueued": self.reenqueued,
        }


@dataclass
class _Manifest:
    """Owner-side record of one published scan source."""

    version: int  # publish sequence number, stamped on the workers' copy
    matrix: np.ndarray  # the unit-row matrix the segment holds a copy of
    ranges: tuple
    spec: object  # the fp32 rows' SegmentSpec


class ShardPool:
    """A persistent pool of shard worker processes behind one engine.

    Args:
        n_procs: worker processes (one contiguous row range each).
        start_method: ``multiprocessing`` start method.  ``"spawn"`` is
            the only one safe whatever the parent's threads are doing;
            forks of a threaded service deadlock on inherited locks.
        stall_s: seconds without a heartbeat or reply before a worker is
            declared stuck and respawned (``0`` disables stall detection).
        max_respawns: respawns tolerated per scan before it raises
            :class:`~repro.errors.ShardError` (the service then scans
            in-process).
        min_rows: smallest table worth fanning out; below it dispatch and
            IPC dominate and the scan stays in-process.
    """

    def __init__(
        self,
        engine,
        n_procs: int,
        *,
        start_method: str = "spawn",
        stall_s: float = 10.0,
        max_respawns: int = 2,
        min_rows: int = 16384,
    ) -> None:
        if n_procs < 1:
            raise ShardError(f"n_procs must be >= 1, got {n_procs}")
        self.engine = engine  # repro.query.Engine
        self.n_procs = int(n_procs)
        self.min_rows = min_rows
        self.stall_s = max(0.0, float(stall_s))
        self.max_respawns = max(0, int(max_respawns))
        #: How often a scan waiting on replies re-checks its workers: a
        #: quarter of the stall tolerance, at most 50 ms.
        self.poll_s = min(self.stall_s / 4.0, 0.05) if self.stall_s else 0.05
        self._mp = multiprocessing.get_context(start_method)
        self._owner = SegmentOwner()
        self.segment_prefix = self._owner.prefix
        self._manifests: dict[tuple, _Manifest] = {}
        self._publish_msgs: dict[tuple, dict] = {}
        self._publish_seq = 0
        self._lock = threading.RLock()
        self.stats = ShardPoolStats()
        self._task_seq = 0
        self._closed = False
        self._workers: list[_Worker] = [
            self._spawn(sid) for sid in range(self.n_procs)
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=worker_main,
            args=(child_conn, shard_id),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn, shard_id)
        # Replay every published store: a fresh worker must be able to
        # serve any scan its predecessor could.  Acks arrive in FIFO
        # order ahead of any scan reply, so the collect loop just treats
        # them as progress.
        for message in self._publish_msgs.values():
            worker.conn.send(message)
        return worker

    def _respawn(self, shard_id: int, *, stalled: bool) -> _Worker:
        old = self._workers[shard_id]
        with self._lock:
            if stalled:
                self.stats.stalls += 1
            else:
                self.stats.worker_deaths += 1
            self.stats.respawns += 1
        try:
            old.conn.close()
        except OSError:
            pass
        if old.proc.is_alive():
            old.proc.terminate()
        old.proc.join(timeout=5.0)
        worker = self._spawn(shard_id)
        self._workers[shard_id] = worker
        return worker

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, key: tuple) -> _Manifest:
        """Publish (or refresh) the fp32 scan rows of one source key.

        Idempotent while the engine's unit-row matrix of the source is the
        object published — the planner's identity rule, so a new
        registration or a replaced model unlinks the stale segment and
        re-publishes.  Returns the owner-side manifest.
        """
        with self._lock:
            if self._closed:
                raise ShardError("shard pool is closed")
            return self._publish_locked(tuple(key))

    def _publish_locked(self, key: tuple) -> _Manifest:
        table_name = key[0]
        engine = self.engine
        normalized = engine.normalized_matrix_for(key, engine.catalog.get(table_name))
        manifest = self._manifests.get(key)
        if manifest is not None:
            if manifest.matrix is normalized:
                return manifest
            self._owner.unlink(manifest.spec.name)
            self._manifests.pop(key, None)
            self._publish_msgs.pop(key, None)

        self._publish_seq += 1
        manifest = _Manifest(
            version=self._publish_seq,
            matrix=normalized,
            # Cut the matrix published, not the catalog's current version.
            ranges=ShardMap.build(
                table_name, self._publish_seq, len(normalized), self.n_procs
            ).ranges,
            spec=self._owner.publish(normalized),
        )
        self._manifests[key] = manifest
        message = make_task(
            "publish",
            key=list(key),
            version=manifest.version,
            ranges=[list(r) for r in manifest.ranges],
            spec=manifest.spec,
        )
        self._publish_msgs[key] = message
        self.stats.publishes += 1
        for worker in self._workers:
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                self._respawn(worker.shard_id, stalled=False)
        return manifest

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def should_shard(self, n_rows: int, n_queries: int, dim: int) -> bool:
        """Is fanning this scan out cheaper than staying in-process?"""
        return (
            choose_shard_fanout(
                n_rows,
                max(1, n_queries),
                dim,
                self.n_procs,
                params=self.engine.cost_params,
                min_rows=self.min_rows,
            )
            > 1
        )

    def scan_candidates(
        self,
        key: tuple,
        queries: np.ndarray,
        *,
        n_rows: int,
        topk_rows,
        kpad: int,
        thr_rows,
        thr_floors: np.ndarray,
    ) -> ShardScanResult | None:
        """Fan one coalesced scan out; ``None`` means "stay in-process".

        ``thr_floors`` are the front door's margin-adjusted thresholds.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        dim = int(queries.shape[1]) if queries.ndim == 2 else 0
        if self._closed or not len(queries):
            return None
        if not self.should_shard(n_rows, len(queries), dim):
            with self._lock:
                self.stats.declined += 1
            return None
        with self._lock:
            if self._closed:
                return None
            try:
                return self._scan_locked(
                    tuple(key), queries, n_rows=n_rows,
                    topk_rows=topk_rows, kpad=kpad, thr_rows=thr_rows,
                    thr_floors=thr_floors,
                )
            except ShardError:
                self.stats.errors += 1
                raise

    def _scan_locked(
        self, key, queries, *, n_rows, topk_rows, kpad, thr_rows, thr_floors,
    ) -> ShardScanResult | None:
        manifest = self._publish_locked(key)
        if len(manifest.matrix) != n_rows:
            # The table changed under us mid-flight; the caller's exact
            # in-process path is the safe answer.
            return None
        topk_rows = np.asarray(topk_rows, dtype=np.int64)
        thr_rows = np.asarray(thr_rows, dtype=np.int64)
        self._task_seq += 1
        task_id = self._task_seq
        task = make_task(
            "scan",
            task_id=task_id,
            key=list(key),
            version=manifest.version,
            queries=queries,
            topk_rows=topk_rows,
            kpad=int(max(1, kpad)),
            thr_rows=thr_rows,
            thr_floors=np.asarray(thr_floors, dtype=np.float32),
            heartbeat_s=self.stall_s / 4.0 if self.stall_s else 1.0,
        )
        self.stats.scans += 1
        self.stats.tasks += self.n_procs
        pending: dict[int, dict] = {}
        respawn_budget = self.max_respawns
        for worker in list(self._workers):
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                # Dispatch-time deaths draw from the same per-scan budget
                # as collection-time ones.
                if respawn_budget <= 0:
                    raise ShardError(
                        f"shard worker {worker.shard_id} died and the "
                        f"respawn budget ({self.max_respawns}) is "
                        f"exhausted"
                    )
                respawn_budget -= 1
                worker = self._respawn(worker.shard_id, stalled=False)
                worker.conn.send(task)
            pending[worker.shard_id] = task
        replies = self._collect(task_id, pending, respawn_budget)

        parts = []
        pools: list[list[np.ndarray]] = [[] for _ in range(len(thr_rows))]
        blocks = 0
        rows = 0
        walls: list[float] = [0.0] * self.n_procs
        starts: list[float] = [0.0] * self.n_procs
        for shard_id in sorted(replies):
            payload = replies[shard_id]
            parts.append((
                np.asarray(payload["topk_rows"], dtype=np.int64),
                np.asarray(payload["topk_ids"], dtype=np.int64),
                np.asarray(payload["topk_scores"], dtype=np.float32),
            ))
            for j, hits in enumerate(payload["thr_hits"]):
                hits = np.asarray(hits, dtype=np.int64)
                if len(hits):
                    pools[j].append(hits)
            blocks += int(payload["blocks"])
            rows += int(payload["rows"])
            walls[shard_id] = float(payload["wall_s"])
            starts[shard_id] = float(payload["start_s"])
        self.stats.rows_scanned += rows

        heap_ids, heap_floor = merge_topk(parts, len(topk_rows), kpad)
        thr_hits = [
            np.concatenate(p) if p else np.empty(0, dtype=np.int64)
            for p in pools
        ]
        return ShardScanResult(
            heap_ids=heap_ids,
            heap_floor=heap_floor,
            thr_hits=thr_hits,
            n_shards=self.n_procs,
            blocks=blocks,
            rows=rows,
            shard_walls=walls,
            shard_starts=starts,
        )

    def _collect(
        self, task_id: int, pending: dict[int, dict], respawn_budget: int
    ) -> dict:
        """Await one reply per shard, healing dead/stuck workers.

        Heartbeats (or any message) mark progress; a worker silent past
        the stall tolerance is terminated and respawned; respawns are
        budgeted per scan (shared with dispatch-time deaths), and
        exhausting the budget raises :class:`ShardError`.
        """
        replies: dict[int, dict] = {}
        now = time.perf_counter()
        last_progress = {sid: now for sid in pending}
        respawns_left = respawn_budget

        def heal(shard_id: int, *, stalled: bool, reason: str) -> None:
            nonlocal respawns_left
            if respawns_left <= 0:
                raise ShardError(
                    f"shard worker {shard_id} {reason} and the respawn "
                    f"budget ({self.max_respawns}) is exhausted"
                )
            respawns_left -= 1
            worker = self._respawn(shard_id, stalled=stalled)
            with self._lock:
                self.stats.reenqueued += 1
            worker.conn.send(pending[shard_id])
            last_progress[shard_id] = time.perf_counter()

        while len(replies) < len(pending):
            progressed = False
            for shard_id, task in pending.items():
                if shard_id in replies:
                    continue
                worker = self._workers[shard_id]
                try:
                    while worker.conn.poll(0):
                        kind, payload = open_task(worker.conn.recv())
                        last_progress[shard_id] = time.perf_counter()
                        progressed = True
                        if kind == "error":
                            if payload.get("task_id") == task_id:
                                raise ShardError(
                                    f"shard worker {shard_id} failed: "
                                    f"{payload.get('error')}"
                                )
                            continue  # stale error from a bygone task
                        if (
                            kind == "result"
                            and payload.get("task_id") == task_id
                        ):
                            replies[shard_id] = payload
                            break
                        # heartbeats, publish acks, stale results: all
                        # just proof of life.
                except (EOFError, OSError, BrokenPipeError):
                    heal(shard_id, stalled=False, reason="died")
                    continue
                if shard_id in replies:
                    continue
                if not worker.proc.is_alive():
                    heal(shard_id, stalled=False, reason="died")
                elif (
                    self.stall_s
                    and time.perf_counter() - last_progress[shard_id]
                    > self.stall_s
                ):
                    heal(shard_id, stalled=True, reason="stalled")
            if not progressed:
                time.sleep(min(self.poll_s, 0.002))
        return replies

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------
    def worker_health(self) -> dict:
        """Process-level health for ``QueryService.health()``."""
        alive = sum(1 for w in self._workers if w.proc.is_alive())
        with self._lock:
            return {
                "procs": self.n_procs,
                "alive": alive,
                "worker_deaths": self.stats.worker_deaths,
                "stalls": self.stats.stalls,
                "respawns": self.stats.respawns,
            }

    def stats_snapshot(self) -> dict:
        with self._lock:
            snap = self.stats.snapshot()
        snap["procs"] = self.n_procs
        snap["segments"] = len(self._owner.segment_names())
        snap["alive"] = sum(1 for w in self._workers if w.proc.is_alive())
        return snap

    def segment_names(self) -> list[str]:
        return self._owner.segment_names()

    def close(self, timeout_s: float = 5.0) -> None:
        """Shut workers down and unlink every published segment.

        Idempotent, and unconditional: even if a worker must be killed,
        the owner still unlinks all segments — the no-leak guarantee does
        not depend on worker cooperation.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.conn.send(make_task("shutdown"))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.perf_counter() + timeout_s
        for worker in workers:
            worker.proc.join(
                timeout=max(0.1, deadline - time.perf_counter())
            )
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._owner.close()
