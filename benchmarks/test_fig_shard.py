"""fig_shard: sharded multiprocess scan vs the thread-only baseline.

The shared scan is a dense GEMM over the whole corpus; past the point
where one process saturates, the GIL (and a single BLAS domain) caps it.
This scenario measures the shard pool two ways:

* **raw scan throughput** — one coalesced top-k candidate scan over the
  corpus, in-process (``threads`` row) vs fanned across 1/2/4/8 shard
  worker processes via :meth:`ShardPool.scan_candidates`.  Throughput is
  query-row pairs per second; the paper-style gate requires the pool to
  beat the thread-only scan by >= 2x at 4+ shards on fp32.
* **service QPS/latency** — the full query service at 1/16/64 concurrent
  clients with ``shard_procs`` in {0, 1, 2, 4, 8}, reporting QPS plus
  p50/p99 per-query latency.  Every sharded result is asserted
  bit-identical to one-at-a-time serial execution on a bare engine.

A 1-shard pool exists only to expose the IPC overhead floor: the cost
model (correctly) refuses to fan out to a single shard, so its raw row
reports the in-process path it falls back to.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Engine, QueryService
from repro.bench import FigureReport, Seconds, latency_percentiles, speedup
from repro.embedding import HashingEmbedder
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.shard import ShardPool, leaked_segments
from repro.workloads import unit_vectors

from _smoke import SMOKE, pick

N_ROWS = pick(200_000, 4_000)
DIM = pick(96, 16)
SCAN_QUERIES = pick(64, 8)
TOTAL_QUERIES = pick(192, 16)
K = 10
KPAD = 4 * K
SHARD_COUNTS = pick((1, 2, 4, 8), (1, 2))
CLIENT_COUNTS = pick((1, 16, 64), (1, 4))
SCAN_REPEAT = pick(5, 2)
MODEL = "shard-model"
KEY = ("corpus", "emb", MODEL)

_BASE = unit_vectors(N_ROWS, DIM, stream="fig_shard/base")


def _fresh_engine() -> Engine:
    table = Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(N_ROWS)),
            Column(Field("emb", DataType.TENSOR, dim=DIM), _BASE),
        ]
    )
    catalog = Catalog()
    catalog.register("corpus", table)
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def _thread_scan(normalized: np.ndarray, queries: np.ndarray):
    """The in-process candidate scan: one GEMM plus a top-kpad select."""
    scores = queries @ normalized.T
    kpad = min(KPAD, scores.shape[1])
    part = np.argpartition(-scores, kpad - 1, axis=1)[:, :kpad]
    return part, scores


def _time_raw(fn) -> Seconds:
    times = []
    for _ in range(SCAN_REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return Seconds(min(times), times)


def _run_naive(stream) -> tuple[list, float, list[float]]:
    """One-at-a-time serial execution on a bare engine (the reference)."""
    engine = _fresh_engine()
    results, latencies = [], []
    start = time.perf_counter()
    for qvec in stream:
        t0 = time.perf_counter()
        results.append(
            engine.query("corpus")
            .esimilar("emb", qvec, model=MODEL, top_k=K)
            .execute()
        )
        latencies.append(time.perf_counter() - t0)
    return results, time.perf_counter() - start, latencies


def _run_service(stream, clients: int, shard_procs: int):
    engine = _fresh_engine()
    service = QueryService(
        engine,
        coalesce=True,
        max_inflight=max(64, clients),
        shard_procs=shard_procs,
    )
    if service.shard_pool is not None:
        # Smoke corpora sit under the production min-rows floor; the
        # benchmark wants the shard path exercised at every scale.
        service.shard_pool.min_rows = 1
    results: list = [None] * len(stream)
    latencies: list = [0.0] * len(stream)
    chunks = [list(range(i, len(stream), clients)) for i in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(chunk: list[int]) -> None:
        with service.session() as session:
            barrier.wait()
            for qi in chunk:
                t0 = time.perf_counter()
                results[qi] = session.execute(
                    engine.query("corpus").esimilar(
                        "emb", stream[qi], model=MODEL, top_k=K
                    )
                )
                latencies[qi] = time.perf_counter() - t0

    threads = [
        threading.Thread(target=client, args=(chunk,), daemon=True)
        for chunk in chunks
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    snapshot = service.stats_snapshot()
    prefix = (
        service.shard_pool.segment_prefix
        if service.shard_pool is not None
        else None
    )
    service.shutdown()
    if prefix is not None:
        assert leaked_segments(prefix) == [], (
            f"leaked shared-memory segments: {leaked_segments(prefix)}"
        )
    return results, wall, latencies, snapshot


def _assert_identical(reference: list, got: list) -> None:
    for i, (a, b) in enumerate(zip(reference, got)):
        assert a.schema.names == b.schema.names, f"query {i}: schema differs"
        for name in a.schema.names:
            assert np.array_equal(a.array(name), b.array(name)), (
                f"query {i}: column {name!r} differs from serial execution"
            )


def test_fig_shard_report(benchmark):
    report = FigureReport(
        "fig_shard",
        f"Sharded multiprocess scan vs thread-only over {N_ROWS}x{DIM} "
        f"fp32 corpus (top-{K}, kpad {KPAD})",
        (
            "mode",
            "shards",
            "clients",
            "queries",
            "seconds",
            "qps",
            "p50_ms",
            "p99_ms",
            "speedup_vs_base",
        ),
    )

    # -- raw candidate-scan throughput ---------------------------------
    engine = _fresh_engine()
    ctx = engine.context(tag="fig_shard/baseline")
    normalized = ctx.normalized_matrix_for(KEY, ctx.catalog.get(KEY[0]))
    queries = unit_vectors(
        SCAN_QUERIES, DIM, stream="fig_shard/scan-queries"
    ).astype(np.float32)

    base_s = _time_raw(lambda: _thread_scan(normalized, queries))
    pairs = SCAN_QUERIES * N_ROWS
    report.add(
        "scan-threads", 0, 1, SCAN_QUERIES, base_s,
        SCAN_QUERIES / base_s, float("nan"), float("nan"), 1.0,
    )
    report.note(
        f"raw scan throughput baseline: {pairs / base_s / 1e6:.1f}M "
        f"query-row pairs/s in-process"
    )

    pool_throughput: dict[int, float] = {}
    topk_rows = list(range(SCAN_QUERIES))
    floors = np.full(SCAN_QUERIES, 2.0, dtype=np.float32)  # heap-only scan
    for n_shards in SHARD_COUNTS:
        pool = ShardPool(engine, n_shards, min_rows=1)
        try:
            def pool_scan():
                return pool.scan_candidates(
                    KEY, queries, n_rows=N_ROWS, topk_rows=topk_rows,
                    kpad=KPAD, thr_rows=[], thr_floors=floors[:0],
                )

            first = pool_scan()  # publish + warm the workers once
            if first is None:
                # The cost model keeps 1-shard scans in-process; the
                # fallback is exactly the thread-only row above.
                report.note(
                    f"pool-{n_shards}: cost model declined the fan-out "
                    f"(fanout=1); in-process path used"
                )
                report.add(
                    f"scan-pool-{n_shards}", n_shards, 1, SCAN_QUERIES,
                    base_s, SCAN_QUERIES / base_s, float("nan"),
                    float("nan"), 1.0,
                )
                continue
            part, scores = _thread_scan(normalized, queries)
            for j in range(SCAN_QUERIES):
                kth = np.sort(scores[j])[-K]
                exact_top = set(np.nonzero(scores[j] >= kth)[0][: KPAD])
                assert exact_top <= set(first.heap_ids[j]), (
                    f"shard candidates for query {j} miss exact top-{K} rows"
                )
            pool_s = _time_raw(pool_scan)
            pool_throughput[n_shards] = pairs / pool_s
            report.add(
                f"scan-pool-{n_shards}", n_shards, 1, SCAN_QUERIES, pool_s,
                SCAN_QUERIES / pool_s, float("nan"), float("nan"),
                speedup(base_s, pool_s),
            )
        finally:
            prefix = pool.segment_prefix
            pool.close()
            assert leaked_segments(prefix) == []

    # -- service QPS / latency -----------------------------------------
    stream = [
        v.astype(np.float32)
        for v in unit_vectors(TOTAL_QUERIES, DIM, stream="fig_shard/stream")
    ]
    reference, naive_wall, naive_lat = _run_naive(stream)

    for clients in CLIENT_COUNTS:
        for shard_procs in (0, *SHARD_COUNTS):
            results, wall, latencies, snapshot = _run_service(
                stream, clients, shard_procs
            )
            _assert_identical(reference, results)
            pct = latency_percentiles(latencies)
            mode = "svc-threads" if shard_procs == 0 else "svc-shard"
            report.add(
                mode, shard_procs, clients, len(stream),
                Seconds(wall, latencies),
                len(stream) / wall if wall > 0 else float("inf"),
                pct["p50"] * 1e3, pct["p99"] * 1e3,
                speedup(naive_wall, wall),
            )
            if shard_procs == max(SHARD_COUNTS) and clients == max(
                CLIENT_COUNTS
            ):
                shard_stats = snapshot.get("shard", {})
                report.note(
                    f"svc-shard@{shard_procs}x{clients}: "
                    f"{shard_stats.get('scans', 0)} fanned scans, "
                    f"{shard_stats.get('declined', 0)} declined, "
                    f"{shard_stats.get('rows_scanned', 0)} rows scanned "
                    f"by workers, {shard_stats.get('errors', 0)} errors"
                )

    report.note(
        "all service results (sharded and thread-only) are asserted "
        "bit-identical to one-at-a-time serial execution"
    )
    report.emit()

    if not SMOKE:
        gated = [n for n in SHARD_COUNTS if n >= 4 and n in pool_throughput]
        assert gated, "no 4+ shard pool measurement to gate on"
        for n_shards in gated:
            ratio = pool_throughput[n_shards] / (pairs / base_s)
            assert ratio >= 2.0, (
                f"{n_shards}-shard fp32 scan throughput is only "
                f"{ratio:.2f}x the thread-only baseline (need >= 2x)"
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
