"""fig_qos: deadline-aware serving keeps tail latency flat under load.

``fig_service`` shows throughput; this scenario shows *tails*.  With a
bounded execution pool, naive submission lets queue wait dominate: p99
latency grows roughly linearly with the client count.  The QoS layer
(:meth:`repro.service.QueryService.submit_qos`) holds the tail flat by
refusing to spend execution slots on work that cannot meet its deadline:

* queries whose deadline expires while queued are shed fast with
  ``DeadlineExceededError`` (they never occupy a slot);
* queries whose full-precision estimate misses the deadline — but whose
  stated recall floor admits a quantized path — run a PQ/int8
  prescreen-only scan instead, explicitly flagged ``degraded``;
* everything else runs at full precision, bit-identical to serial.

The scenario drives 1 -> 64 -> 256 concurrent clients over one corpus.
Clients pace their submissions (staggered, fixed per-client interval
sized so 64 clients offer ~1.5x the measured serial capacity — 256
clients therefore ~6x), and each (mode, clients) cell reports
completed/degraded/shed counts, the deadline-miss rate, and p50/p95/p99
latency over completed queries:

* ``no-qos`` — plain ``submit()``: every query waits for a slot and runs
  at full precision, however late it lands;
* ``qos``    — ``submit_qos()`` with a per-query deadline and recall
  floor.

Correctness gate: every *non-degraded* completed result is asserted
bit-identical to one-at-a-time serial execution on the bare engine.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Engine, QueryService
from repro.bench import FigureReport, Seconds, latency_percentiles
from repro.config import rng
from repro.embedding import HashingEmbedder
from repro.errors import DeadlineExceededError
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.workloads import unit_vectors

from _smoke import SMOKE, pick

N_ROWS = pick(48_000, 1_500)
DIM = pick(256, 24)
TOTAL_QUERIES = pick(512, 24)
HOT_POOL = pick(24, 4)
HOT_FRACTION = 0.3
K = 10
CLIENT_COUNTS = (1, 64, 256) if not SMOKE else (1, 4)
#: Execution slots — deliberately far below the peak client count, so
#: queue pressure (not compute) is what the QoS layer must manage.
MAX_INFLIGHT = 8
#: Offered load at 64 clients, as a multiple of measured serial capacity
#: (1 / p50 serial latency).  256 clients then offer 4x this.
OVERLOAD_AT_64 = 1.5
#: Recall floor clients state: PQ at the default rerank multiple sits
#: exactly at it, so degradation is available.
MIN_RECALL = 0.95
#: Serial warm-up queries per service (> qos_min_estimate_samples, so
#: the execution-time tracker is live before the timed run).
WARMUP = 12
#: Concurrent warm-up burst (qos mode): seeds the "full"/"degraded"
#: EWMAs with *contended* execution times, the values the shed/degrade
#: decision actually faces under load.
WARM_BURST = pick(24, 6)
MODEL = "qos-model"


def queries_per_client(clients: int) -> int:
    """Fixed total at 1 client; enough per client for pacing above."""
    return TOTAL_QUERIES if clients == 1 else max(4, TOTAL_QUERIES // clients)


def _catalog() -> Catalog:
    base = unit_vectors(N_ROWS, DIM, stream="fig_qos/base")
    table = Table.from_columns(
        [
            Column(Field("id", DataType.INT64), np.arange(N_ROWS)),
            Column(Field("emb", DataType.TENSOR, dim=DIM), base),
        ]
    )
    catalog = Catalog()
    catalog.register("corpus", table)
    return catalog


def _query_stream(n: int, stream: str) -> list[np.ndarray]:
    """Deterministic stream: ~30% hot-pool repeats, rest unique."""
    hot = unit_vectors(HOT_POOL, DIM, stream=f"{stream}/hot")
    unique = unit_vectors(n, DIM, stream=f"{stream}/unique")
    coin = rng(f"{stream}/coin")
    out = []
    for i in range(n):
        if coin.random() < HOT_FRACTION:
            out.append(hot[int(coin.integers(HOT_POOL))])
        else:
            out.append(unique[i])
    return out


def _fresh_engine() -> Engine:
    engine = Engine(_catalog())
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    return engine


def _builder(engine: Engine, qvec: np.ndarray):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=K)


def _prewarm(engine: Engine, service: QueryService, warm_stream) -> None:
    """Build the shared stores and seed the exec-time tracker off-clock.

    The PQ store build (k-means fit + encode) costs seconds at full
    scale; it is a one-time, amortized cost in a long-running service,
    so the benchmark pays it before the timed window.  The warm-up
    queries seed the "full" EWMA past ``qos_min_estimate_samples`` —
    a cold tracker never sheds, by design.
    """
    ctx = engine.context(tag="prewarm")
    key = ("corpus", "emb", MODEL)
    table = ctx.catalog.get(key[0])
    ctx.normalized_matrix_for(key, table)
    ctx.quant_store_for(key, table, "pq")
    ctx.quant_store_for(key, table, "int8")
    for qvec in warm_stream:
        service.submit_qos(_builder(engine, qvec), tag="warmup")


def _run_naive(stream) -> tuple[list, list[float]]:
    """One-at-a-time serial execution: the bit-identical reference."""
    engine = _fresh_engine()
    results, latencies = [], []
    for qvec in stream:
        t0 = time.perf_counter()
        results.append(_builder(engine, qvec).execute())
        latencies.append(time.perf_counter() - t0)
    return results, latencies


def _warm_burst(engine, service, deadline_s: float) -> None:
    """Concurrent qos-mode warm-up: seed EWMAs with contended timings."""
    warm = _query_stream(WARM_BURST, "fig_qos/burst")
    threads = []

    def fire(qvec) -> None:
        try:
            service.submit_qos(
                _builder(engine, qvec),
                deadline_s=deadline_s,
                min_recall=MIN_RECALL,
                tag="warm-burst",
            )
        except DeadlineExceededError:
            pass

    for qvec in warm:
        thread = threading.Thread(target=fire, args=(qvec,), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()


def _run_mode(stream, clients: int, use_qos: bool, deadline_s: float,
              interval_s: float):
    """Drive the service with ``clients`` paced threads; classify queries.

    Each client is staggered by ``i * interval_s / clients`` and then
    aims one submission every ``interval_s`` (sleeping only up to its
    schedule — a client running behind submits immediately), so arrivals
    spread evenly instead of stampeding the admission queue at t=0.
    Returns ``(outcomes, tables, wall, service)`` where ``outcomes[qi]``
    is ``("ok"|"late"|"degraded"|"shed", latency_seconds)`` and
    ``tables[qi]`` is the result table for completed queries.
    """
    engine = _fresh_engine()
    service = QueryService(engine, max_inflight=MAX_INFLIGHT)
    _prewarm(engine, service, _query_stream(WARMUP, "fig_qos/warm"))
    if use_qos and clients > 1:
        # Seed the EWMAs with *contended* timings before the timed run —
        # but only for loaded cells: the 1-client baseline must reflect
        # uncontended serving, not burst-inflated estimates.
        _warm_burst(engine, service, deadline_s)
    per_client = queries_per_client(clients)
    n = per_client * clients
    assert n <= len(stream)
    outcomes: list = [None] * n
    tables: list = [None] * n
    barrier = threading.Barrier(clients + 1)
    pace = 0.0 if clients == 1 else interval_s

    def client(ci: int) -> None:
        chunk = list(range(ci, n, clients))
        stagger = ci * pace / clients
        with service.session() as session:
            barrier.wait()
            t_start = time.perf_counter()
            for j, qi in enumerate(chunk):
                target = t_start + stagger + j * pace
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.perf_counter()
                if not use_qos:
                    tables[qi] = session.execute(_builder(engine, stream[qi]))
                    latency = time.perf_counter() - t0
                    kind = "ok" if latency <= deadline_s else "late"
                    outcomes[qi] = (kind, latency)
                    continue
                try:
                    response = session.execute_qos(
                        _builder(engine, stream[qi]),
                        deadline_s=deadline_s,
                        min_recall=MIN_RECALL,
                    )
                except DeadlineExceededError:
                    outcomes[qi] = ("shed", time.perf_counter() - t0)
                    continue
                tables[qi] = response.table
                if response.degraded:
                    kind = "degraded"
                elif response.deadline_met:
                    kind = "ok"
                else:
                    kind = "late"
                outcomes[qi] = (kind, response.latency_s)

    threads = [
        threading.Thread(target=client, args=(ci,), daemon=True)
        for ci in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return outcomes, tables, wall, service


def _assert_exact_results(reference, tables, outcomes) -> None:
    """Non-degraded completed results must be bit-identical to serial."""
    for qi, table in enumerate(tables):
        if table is None or outcomes[qi][0] == "degraded":
            continue
        ref = reference[qi]
        assert ref.schema.names == table.schema.names, (
            f"query {qi}: schema differs from serial execution"
        )
        for name in ref.schema.names:
            assert np.array_equal(ref.array(name), table.array(name)), (
                f"query {qi}: column {name!r} differs from serial execution"
            )


def test_fig_qos_report(benchmark):
    longest = max(c * queries_per_client(c) for c in CLIENT_COUNTS)
    stream = _query_stream(longest, "fig_qos/stream")
    reference, naive_lat = _run_naive(stream)
    naive_pct = latency_percentiles(naive_lat)
    # The per-query deadline: ~10 uncontended executions (scaled off the
    # stable p50, not the noisy p99).  Tight enough that queue wait
    # under load blows through it, loose enough that the *contended*
    # degraded estimate (exec slots share cores, so concurrent execution
    # runs up to MAX_INFLIGHT x slower than serial) still fits —
    # degradation must stay available under load.
    deadline_s = max(10.0 * naive_pct["p50"], 0.02)
    # Per-client pacing interval: 64 clients together offer
    # OVERLOAD_AT_64 x the measured serial capacity (1 / p50).
    interval_s = 64.0 * naive_pct["p50"] / OVERLOAD_AT_64

    report = FigureReport(
        "fig_qos",
        f"Deadline-aware QoS tail latency over {N_ROWS}x{DIM} corpus, "
        f"top-{K} queries, {MAX_INFLIGHT} execution slots, "
        f"deadline {deadline_s * 1e3:.1f} ms, recall floor {MIN_RECALL}, "
        f"{OVERLOAD_AT_64}x offered load at 64 clients",
        (
            "mode",
            "clients",
            "seconds",
            "completed",
            "degraded",
            "shed",
            "miss_rate",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ),
    )
    report.note(
        f"serial reference: p50 {naive_pct['p50'] * 1e3:.2f} ms, "
        f"p99 {naive_pct['p99'] * 1e3:.2f} ms over {len(naive_lat)} queries"
    )

    p99_by_mode: dict[tuple[str, int], float] = {}
    for clients in CLIENT_COUNTS:
        for mode, use_qos in (("no-qos", False), ("qos", True)):
            outcomes, tables, wall, service = _run_mode(
                stream, clients, use_qos, deadline_s, interval_s
            )
            _assert_exact_results(reference, tables, outcomes)
            kinds = [o[0] for o in outcomes]
            completed_lat = [o[1] for o in outcomes if o[0] != "shed"]
            shed = kinds.count("shed")
            late = kinds.count("late")
            degraded = kinds.count("degraded")
            miss_rate = (shed + late) / len(outcomes)
            pct = latency_percentiles(completed_lat or [0.0])
            p99_by_mode[(mode, clients)] = pct["p99"]
            report.add(
                mode,
                clients,
                Seconds(wall, completed_lat),
                len(completed_lat),
                degraded,
                shed,
                miss_rate,
                pct["p50"] * 1e3,
                pct["p95"] * 1e3,
                pct["p99"] * 1e3,
            )
            if use_qos and clients == max(CLIENT_COUNTS):
                snapshot = service.stats_snapshot()
                report.note(
                    f"qos@{clients}: {snapshot['qos']['shed_expired']} shed "
                    f"expired, {snapshot['qos']['shed_unmeetable']} shed "
                    f"unmeetable, {snapshot['qos']['degraded']} degraded, "
                    f"{snapshot['qos']['deadline_met']} met / "
                    f"{snapshot['qos']['deadline_missed']} missed; "
                    f"result cache {snapshot['result_cache']['exact_hits']} "
                    f"hits"
                )

    report.note(
        "completed = not shed (late full-precision results are returned "
        "and counted as misses); every non-degraded completed result is "
        "asserted bit-identical to one-at-a-time serial execution"
    )
    report.emit()

    if not SMOKE:
        for clients in (64, max(CLIENT_COUNTS)):
            flat = p99_by_mode[("qos", clients)]
            base = p99_by_mode[("qos", 1)]
            assert flat <= 5.0 * base + 0.02, (
                f"qos p99 at {clients} clients ({flat * 1e3:.1f} ms) is not "
                f"within 5x of the 1-client p99 ({base * 1e3:.1f} ms)"
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
