"""fig_service: concurrent query service throughput vs naive submission.

The paper's batching economics (Figures 12/13) argue that embedding scans
pay off when work is batched; the query service applies that argument
*across* queries.  This scenario drives the service with 1/4/16/64
concurrent clients issuing top-k E-selections against one corpus — a
zipf-ish stream where half the traffic repeats a hot pool of query
vectors — and reports QPS plus p50/p95/p99 per-query latency for:

* ``naive``      — one-query-at-a-time submission through the bare engine
                   (no service: no admission, no coalescing, no caches);
* ``svc-solo``   — the service with coalescing disabled (admission +
                   plan/result caches only);
* ``svc-coalesce`` — the full service: concurrently-submitted queries on
                   the same (table, column, model) fuse into shared
                   stacked scans.

Correctness gate: every service result — coalesced, cached, or direct —
must be bit-identical to serial execution on the bare engine.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Engine, QueryService
from repro.bench import FigureReport, Seconds, latency_percentiles, speedup
from repro.config import rng
from repro.embedding import HashingEmbedder
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.workloads import unit_vectors

from _smoke import SMOKE, pick

N_ROWS = pick(48_000, 1_500)
DIM = pick(256, 24)
TOTAL_QUERIES = pick(256, 24)
HOT_POOL = pick(24, 4)
HOT_FRACTION = 0.5
K = 10
CLIENT_COUNTS = (1, 4, 16, 64)
MODEL = "svc-model"


def _catalog() -> Catalog:
    base = unit_vectors(N_ROWS, DIM, stream="fig_service/base")
    table = Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(N_ROWS)),
            Column(Field("emb", DataType.TENSOR, dim=DIM), base),
        ]
    )
    catalog = Catalog()
    catalog.register("corpus", table)
    return catalog


def _query_stream() -> list[np.ndarray]:
    """Deterministic stream: ~half hot-pool repeats, rest unique."""
    hot = unit_vectors(HOT_POOL, DIM, stream="fig_service/hot")
    unique = unit_vectors(TOTAL_QUERIES, DIM, stream="fig_service/unique")
    coin = rng("fig_service/stream")
    stream = []
    for i in range(TOTAL_QUERIES):
        if coin.random() < HOT_FRACTION:
            stream.append(hot[int(coin.integers(HOT_POOL))])
        else:
            stream.append(unique[i])
    return stream


def _fresh_engine() -> Engine:
    engine = Engine(_catalog())
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def _builder(engine: Engine, qvec: np.ndarray):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=K)


def _run_naive(stream) -> tuple[list, float, list[float]]:
    """One-at-a-time submission through a bare engine (the baseline)."""
    engine = _fresh_engine()
    results, latencies = [], []
    start = time.perf_counter()
    for qvec in stream:
        t0 = time.perf_counter()
        results.append(_builder(engine, qvec).execute())
        latencies.append(time.perf_counter() - t0)
    return results, time.perf_counter() - start, latencies


def _run_service(stream, clients: int, coalesce: bool):
    engine = _fresh_engine()
    service = QueryService(
        engine,
        coalesce=coalesce,
        max_inflight=max(64, clients),
    )
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
                    _builder(engine, stream[qi])
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
    return results, wall, latencies, service


def _assert_identical(reference: list, got: list) -> None:
    for i, (a, b) in enumerate(zip(reference, got)):
        assert a.schema.names == b.schema.names, f"query {i}: schema differs"
        for name in a.schema.names:
            assert np.array_equal(a.array(name), b.array(name)), (
                f"query {i}: column {name!r} differs from serial execution"
            )


def test_fig_service_report(benchmark):
    stream = _query_stream()
    report = FigureReport(
        "fig_service",
        f"Concurrent service QPS and latency over {N_ROWS}x{DIM} corpus, "
        f"{TOTAL_QUERIES} top-{K} queries ({HOT_POOL}-vector hot pool)",
        (
            "mode",
            "clients",
            "queries",
            "seconds",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "speedup_vs_naive",
        ),
    )

    def add_row(mode, clients, wall, latencies, naive_wall):
        pct = latency_percentiles(latencies)
        report.add(
            mode,
            clients,
            len(latencies),
            Seconds(wall, latencies),
            len(latencies) / wall if wall > 0 else float("inf"),
            pct["p50"] * 1e3,
            pct["p95"] * 1e3,
            pct["p99"] * 1e3,
            speedup(naive_wall, wall),
        )

    reference, naive_wall, naive_lat = _run_naive(stream)
    add_row("naive", 1, naive_wall, naive_lat, naive_wall)

    qps_by_mode: dict[tuple[str, int], float] = {}
    for clients in CLIENT_COUNTS:
        for mode, coalesce in (("svc-solo", False), ("svc-coalesce", True)):
            results, wall, latencies, service = _run_service(
                stream, clients, coalesce
            )
            _assert_identical(reference, results)
            add_row(mode, clients, wall, latencies, naive_wall)
            qps_by_mode[(mode, clients)] = len(stream) / wall
            if mode == "svc-coalesce" and clients == max(CLIENT_COUNTS):
                snapshot = service.stats_snapshot()
                report.note(
                    f"svc-coalesce@{clients}: "
                    f"{snapshot['coalescer']['groups']} shared scans for "
                    f"{snapshot['coalescer']['coalesced_queries']} queries "
                    f"(max batch {snapshot['coalescer']['max_batch']}), "
                    f"{snapshot['result_cache']['exact_hits']} result-cache "
                    f"hits, {snapshot['plan_cache']['hits']} plan-cache hits"
                )

    report.note(
        "all service results (coalesced, cached, and direct) are asserted "
        "bit-identical to one-at-a-time serial execution"
    )
    report.emit()

    if not SMOKE:
        for clients in (16, 64):
            ratio = qps_by_mode[("svc-coalesce", clients)] * naive_wall / len(
                stream
            )
            assert qps_by_mode[("svc-coalesce", clients)] > len(stream) / naive_wall, (
                f"coalescing+caching QPS at {clients} clients "
                f"({qps_by_mode[('svc-coalesce', clients)]:.1f}) did not beat "
                f"naive ({len(stream) / naive_wall:.1f}); ratio {ratio:.2f}"
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
