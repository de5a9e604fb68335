"""Shard worker process: scans its row range, streams bounded heaps back.

``worker_main`` is the spawn entry point — a top-level function with
picklable arguments only, so it works under every start method.  The
worker is deliberately dumb: it holds zero-copy views over published
segments, and for each scan task it runs the shared-scan core
(:func:`~repro.core.scan.scan_candidates`) over its shard's row range —
the same call the in-process coalesced scan makes — with the task's
precision picking the ``score_block`` representation.  All exactness
decisions (margins, error bounds, exact rescoring) stay at the front
door; the worker only ever produces candidate supersets.

Liveness: during a scan the worker emits heartbeat envelopes between
blocks, so the pool's watchdog can tell "slow but alive" from "stuck"
without guessing from wall-clock alone.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..core.scan import row_major_scores, scan_candidates
from ..errors import ShardError
from .envelope import make_task, open_task
from .store import AttachedSegment


def _score_block(precision: str, views: dict, prepared, queries, start, stop):
    """One approximate score block ``(n_queries, stop - start)``."""
    if precision == "fp32":
        return row_major_scores(views["fp32"].array[start:stop], queries)
    if precision == "fp16":
        block = views["fp16"].array[start:stop].astype(np.float32)
        return row_major_scores(block, queries)
    if precision == "int8":
        quantizer = views["int8_quantizer"]
        return quantizer.scores_block(prepared, views["int8"].array[start:stop])
    if precision == "pq":
        quantizer = views["pq_quantizer"]
        return quantizer.adc_scores(queries, views["pq"].array[start:stop])
    raise ShardError(f"unknown shard scan precision {precision!r}")


def _run_scan(conn, shard_id: int, tables: dict, payload: dict) -> dict:
    key = tuple(payload["key"])
    entry = tables.get(key)
    if entry is None:
        raise ShardError(f"shard {shard_id} has no published store for {key}")
    if entry["version"] != payload["version"]:
        raise ShardError(
            f"shard {shard_id} store for {key} is at version "
            f"{entry['version']}, task wants {payload['version']}"
        )
    precision = payload["precision"]
    views = entry["views"]
    if precision not in views:
        raise ShardError(
            f"shard {shard_id} store for {key} lacks precision {precision!r}"
        )
    lo, hi = entry["ranges"][shard_id]
    queries = np.ascontiguousarray(payload["queries"], dtype=np.float32)
    hb_every_s = max(0.05, float(payload.get("heartbeat_s", 1.0)))

    prepared = None
    if precision == "int8" and len(queries):
        prepared = views["int8_quantizer"].prepare_queries(queries)

    started = time.perf_counter()
    last_beat = started

    def score_block(start: int, stop: int) -> np.ndarray:
        nonlocal last_beat
        now = time.perf_counter()
        if now - last_beat >= hb_every_s:
            last_beat = now
            conn.send(make_task("heartbeat", shard=shard_id,
                                task_id=payload["task_id"]))
        return _score_block(precision, views, prepared, queries, start, stop)

    (rows, ids, scores), thr_hits, blocks = scan_candidates(
        score_block, lo, hi, len(queries),
        payload["topk_rows"], int(payload["kpad"]),
        payload["thr_rows"], payload["thr_floors"],
    )
    return make_task(
        "result",
        task_id=payload["task_id"],
        shard=shard_id,
        topk_rows=rows,
        topk_ids=ids,
        topk_scores=scores,
        thr_hits=thr_hits,
        rows=int(hi - lo),
        blocks=blocks,
        wall_s=time.perf_counter() - started,
    )


def _attach_store(tables: dict, payload: dict) -> None:
    key = tuple(payload["key"])
    old = tables.pop(key, None)
    if old is not None:
        for view in old["views"].values():
            if isinstance(view, AttachedSegment):
                view.close()
    views: dict = {}
    for precision, spec in payload["specs"].items():
        views[precision] = AttachedSegment(spec)
    for name, quantizer in (payload.get("quantizers") or {}).items():
        views[f"{name}_quantizer"] = quantizer
    tables[key] = {
        "version": payload["version"],
        "ranges": [tuple(r) for r in payload["ranges"]],
        "views": views,
    }


def worker_main(conn, shard_id: int) -> None:
    """Entry point of one shard worker process (runs until shutdown)."""
    tables: dict = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # pool side went away; exit quietly
            try:
                kind, payload = open_task(message)
                if kind == "shutdown":
                    conn.send(make_task("bye", shard=shard_id))
                    break
                if kind == "ping":
                    conn.send(make_task(
                        "pong", shard=shard_id, pid=os.getpid()
                    ))
                elif kind == "publish":
                    _attach_store(tables, payload)
                    conn.send(make_task(
                        "published",
                        shard=shard_id,
                        key=list(payload["key"]),
                        version=payload["version"],
                    ))
                elif kind == "scan":
                    conn.send(_run_scan(conn, shard_id, tables, payload))
                else:
                    raise ShardError(f"unknown shard task kind {kind!r}")
            except Exception as exc:  # report, keep serving
                try:
                    conn.send(make_task(
                        "error",
                        shard=shard_id,
                        task_id=(message or {}).get("payload", {})
                        .get("task_id"),
                        error=f"{type(exc).__name__}: {exc}",
                    ))
                except (BrokenPipeError, OSError):
                    break
    finally:
        for entry in tables.values():
            for view in entry["views"].values():
                if isinstance(view, AttachedSegment):
                    view.close()
        try:
            conn.close()
        except OSError:
            pass
