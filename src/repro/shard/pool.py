"""Persistent shard-worker pool: fan the coalesced scan across processes.

The pool owns everything multiprocess about sharded execution:

* **publishing** — each (table, column, model) scan source is normalized
  once, cut into contiguous row ranges by the catalog's
  :class:`~repro.relational.catalog.ShardMap`, and its scan-ready
  representations (fp32, and on demand fp16/int8/PQ) are copied into
  shared-memory segments workers map zero-copy;
* **dispatch** — one scan task per worker, carried by the flight
  recorder's bit-exact wire format over pipes;
* **merging** — every shard returns its top-k candidate triples and they
  fold under one total order (score desc, id asc;
  :func:`~repro.core.scan.merge_topk`), so the candidate set is
  independent of reply arrival order and identical to a serial scan's;
* **self-healing** — a watchdog with the same policy semantics as the
  in-process engine's (:mod:`repro.reliability.watchdog`): heartbeats
  mark progress, silent workers past the stall tolerance are terminated,
  dead workers are respawned with every published store replayed, and
  their task is re-dispatched.  Past the respawn budget the pool raises
  :class:`~repro.errors.ShardError`, which callers treat as "fall back
  to the exact in-process scan".

Exactness: workers only produce candidate supersets.  For quantized
precisions the pool widens thresholds by the store's provable score
error bound before dispatch and widens the merged heap floor by the same
bound after, so the front door's existing margin guard and float64 exact
rescore make the final rows a pure function of (data, query, condition)
— bit-identical to serial for every precision.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.cost_model import choose_shard_fanout
from ..core.scan import merge_topk
from ..errors import ShardError
from ..reliability.watchdog import WatchdogPolicy
from .envelope import make_task, open_task
from .store import SegmentOwner
from .worker import worker_main


@dataclass
class ShardScanResult:
    """Merged candidates from one fanned-out scan."""

    heap_ids: list[np.ndarray]    # per top-k row, candidate ids best first
    heap_floor: np.ndarray        # (n_topk_rows,) effective floor incl. bound
    thr_hits: list[np.ndarray]    # per threshold row, ascending global ids
    n_shards: int
    blocks: int
    rows: int
    shard_walls: list[float]      # per-shard worker-side scan seconds


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

    version: int
    n_rows: int
    dim: int
    ranges: tuple
    specs: dict = field(default_factory=dict)        # precision -> SegmentSpec
    quantizers: dict = field(default_factory=dict)   # "int8"/"pq" -> quantizer
    bounds: dict = field(default_factory=dict)       # precision -> float


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
        self.policy = WatchdogPolicy(stall_s=stall_s, max_respawns=max_respawns)
        self._mp = multiprocessing.get_context(start_method)
        self._owner = SegmentOwner()
        self.segment_prefix = self._owner.prefix
        self._manifests: dict[tuple, _Manifest] = {}
        self._publish_msgs: dict[tuple, dict] = {}
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
    def publish(self, key: tuple, precisions=("fp32",)) -> _Manifest:
        """Publish (or refresh) the scan stores for one source key.

        Idempotent per (catalog version, precision); a version bump
        unlinks the stale segments and re-publishes from the current
        table.  Returns the owner-side manifest.
        """
        with self._lock:
            if self._closed:
                raise ShardError("shard pool is closed")
            return self._publish_locked(tuple(key), tuple(precisions))

    def _publish_locked(self, key: tuple, precisions: tuple) -> _Manifest:
        table_name, column, model_name = key
        ctx = self.engine.context(tag=f"shard/publish/{table_name}.{column}")
        version = ctx.catalog.version(table_name)
        manifest = self._manifests.get(key)
        if manifest is not None and manifest.version != version:
            for spec in manifest.specs.values():
                self._owner.unlink(spec.name)
            manifest = None
            self._manifests.pop(key, None)
            self._publish_msgs.pop(key, None)
        missing = [
            p for p in precisions
            if manifest is None or p not in manifest.specs
        ]
        if manifest is not None and not missing:
            return manifest

        table = ctx.catalog.get(table_name)
        normalized = ctx.normalized_matrix_for(key, table)
        if manifest is None:
            shard_map = ctx.catalog.shard_map(table_name, self.n_procs)
            manifest = _Manifest(
                version=version,
                n_rows=len(normalized),
                dim=int(normalized.shape[1]) if normalized.ndim == 2 else 0,
                ranges=shard_map.ranges,
            )
            self._manifests[key] = manifest
        for precision in missing:
            if precision == "fp32":
                manifest.specs[precision] = self._owner.publish(normalized)
                manifest.bounds[precision] = 0.0
            elif precision == "fp16":
                half = normalized.astype(np.float16)
                err = normalized - half.astype(np.float32)
                resid = (
                    float(np.sqrt(np.einsum("ij,ij->i", err, err)).max())
                    if len(err)
                    else 0.0
                )
                manifest.specs[precision] = self._owner.publish(half)
                # Cauchy-Schwarz over unit queries, plus GEMM noise slack.
                manifest.bounds[precision] = resid + 1e-5
            elif precision in ("int8", "pq"):
                store = ctx.quant_store_for(key, table, precision)
                manifest.specs[precision] = self._owner.publish(store.codes)
                manifest.quantizers[precision] = store.quantizer
                manifest.bounds[precision] = float(
                    store.quantizer.score_error_bound()
                )
            else:
                raise ShardError(f"unknown shard precision {precision!r}")

        message = make_task(
            "publish",
            key=list(key),
            version=version,
            ranges=[list(r) for r in manifest.ranges],
            specs=dict(manifest.specs),
            quantizers=dict(manifest.quantizers),
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
        params = getattr(self.engine, "cost_params", None)
        return (
            choose_shard_fanout(
                n_rows,
                max(1, n_queries),
                dim,
                self.n_procs,
                params=params,
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
        precision: str = "fp32",
    ) -> ShardScanResult | None:
        """Fan one coalesced scan out; ``None`` means "stay in-process".

        ``thr_floors`` are the front door's margin-adjusted thresholds;
        the pool subtracts the store's score error bound before dispatch
        and adds it back onto the merged heap floor, keeping the
        candidate sets provable supersets for every precision.
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
                    thr_floors=thr_floors, precision=precision,
                )
            except ShardError:
                self.stats.errors += 1
                raise

    def _scan_locked(
        self, key, queries, *, n_rows, topk_rows, kpad, thr_rows,
        thr_floors, precision,
    ) -> ShardScanResult | None:
        manifest = self._publish_locked(key, (precision,))
        if manifest.n_rows != n_rows:
            # The table changed under us mid-flight; the caller's exact
            # in-process path is the safe answer.
            return None
        bound = manifest.bounds[precision]
        topk_rows = np.asarray(topk_rows, dtype=np.int64)
        thr_rows = np.asarray(thr_rows, dtype=np.int64)
        adj_floors = (
            np.asarray(thr_floors, dtype=np.float32) - np.float32(bound)
        )
        self._task_seq += 1
        task_id = self._task_seq
        task = make_task(
            "scan",
            task_id=task_id,
            key=list(key),
            version=manifest.version,
            precision=precision,
            queries=queries,
            topk_rows=topk_rows,
            kpad=int(max(1, kpad)),
            thr_rows=thr_rows,
            thr_floors=adj_floors,
            heartbeat_s=self.policy.stall_s / 4.0 if self.policy.enabled
            else 1.0,
        )
        self.stats.scans += 1
        self.stats.tasks += self.n_procs
        pending: dict[int, dict] = {}
        respawn_budget = self.policy.max_respawns
        for worker in list(self._workers):
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                # Dispatch-time deaths draw from the same per-scan budget
                # as collection-time ones.
                if respawn_budget <= 0:
                    raise ShardError(
                        f"shard worker {worker.shard_id} died and the "
                        f"respawn budget ({self.policy.max_respawns}) is "
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
        self.stats.rows_scanned += rows

        heap_ids, heap_floor = merge_topk(parts, len(topk_rows), kpad)
        heap_floor += np.float32(bound)
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
        )

    def _collect(
        self, task_id: int, pending: dict[int, dict], respawn_budget: int
    ) -> dict:
        """Await one reply per shard, healing dead/stuck workers.

        Same watchdog semantics as the in-process engine: heartbeats (or
        any message) mark progress; a worker silent past the stall
        tolerance is terminated and respawned; respawns are budgeted per
        scan (shared with dispatch-time deaths), and exhausting the
        budget raises :class:`ShardError`.
        """
        replies: dict[int, dict] = {}
        now = time.perf_counter()
        last_progress = {sid: now for sid in pending}
        respawns_left = respawn_budget
        poll_s = self.policy.poll_s

        def heal(shard_id: int, *, stalled: bool, reason: str) -> None:
            nonlocal respawns_left
            if respawns_left <= 0:
                raise ShardError(
                    f"shard worker {shard_id} {reason} and the respawn "
                    f"budget ({self.policy.max_respawns}) is exhausted"
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
                    self.policy.enabled
                    and time.perf_counter() - last_progress[shard_id]
                    > self.policy.stall_s
                ):
                    heal(shard_id, stalled=True, reason="stalled")
            if not progressed:
                time.sleep(min(poll_s, 0.002))
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
