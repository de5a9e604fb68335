"""QueryService with shard workers: bit-identical results, health, metrics."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from _shard_utils import MODEL, corpus_vectors, make_engine
from repro.embedding import HashingEmbedder
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Schema, Table
from repro.service import QueryService
from repro.shard import leaked_segments
from repro.workloads import unit_vectors

pytestmark = pytest.mark.shard

# Large enough that the cost model fans out even a single-query group.
N_ROWS = 20_000
K = 7
CLIENTS = 8
QUERIES = 16


@pytest.fixture(scope="module")
def sharded_setup():
    vectors = corpus_vectors(N_ROWS)
    engine = make_engine(vectors)
    service = QueryService(
        engine,
        coalesce=True,
        max_inflight=64,
        shard_procs=2,
    )
    # The test corpus sits near the production min-rows floor; pin it
    # below so every group exercises the fan-out.
    service.shard_pool.min_rows = 1
    queries = unit_vectors(QUERIES, 16, stream="shard-svc/queries").astype(
        np.float32
    )
    serial_engine = make_engine(vectors)
    reference = [
        serial_engine.query("corpus")
        .esimilar("emb", q, model=MODEL, top_k=K)
        .execute()
        for q in queries
    ]
    yield engine, service, queries, reference
    service.shutdown()


def _run_concurrent(engine, service, queries):
    results = [None] * len(queries)
    errors = []
    barrier = threading.Barrier(CLIENTS)
    chunks = [list(range(i, len(queries), CLIENTS)) for i in range(CLIENTS)]

    def client(chunk):
        try:
            barrier.wait()
            for n, qi in enumerate(chunk, 1):
                results[qi] = service.submit(
                    engine.query("corpus").esimilar(
                        "emb", queries[qi], model=MODEL, top_k=K
                    ),
                    tag=f"client-{chunk[0]}/q{n}",
                )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(c,), daemon=True) for c in chunks
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestShardedService:
    def test_results_bit_identical_to_serial(self, sharded_setup):
        engine, service, queries, reference = sharded_setup
        results = _run_concurrent(engine, service, queries)
        for i, (ref, got) in enumerate(zip(reference, results)):
            assert got.schema.names == ref.schema.names
            for name in ref.schema.names:
                assert np.array_equal(got.array(name), ref.array(name)), (
                    f"query {i}: column {name!r} diverges from serial"
                )
        snap = service.stats_snapshot()
        assert snap["shard"]["procs"] == 2
        assert snap["shard"]["scans"] >= 1, "no group took the shard path"
        assert snap["shard"]["errors"] == 0
        assert snap["coalescer"]["sharded_groups"] >= 1

    def test_health_reports_worker_block(self, sharded_setup):
        _, service, _, _ = sharded_setup
        health = service.health()
        assert health.shard["procs"] == 2
        assert health.shard["alive"] == 2
        assert health.shard["worker_deaths"] == 0
        assert health.as_dict()["shard"]["procs"] == 2

    def test_metrics_expose_shard_gauges(self, sharded_setup):
        _, service, _, _ = sharded_setup
        text = service.metrics()
        assert "repro_shard_procs" in text
        assert "repro_shard_scans" in text
        assert "repro_shard_alive" in text


def test_shard_spans_start_where_the_shards_did(sharded_setup, hold_scan_slots, monkeypatch):
    """A member of a 2-shard group gets one ``shard.scan`` span per worker,
    placed when that worker began — a fan-out held back after the group
    scan started shows the delay — and ended before the member's rescore
    starts."""
    delay_s, slack = 0.05, 1e-6  # slack: float rounding of start + wall
    engine, service, _, _ = sharded_setup
    scan_candidates = service.shard_pool.scan_candidates

    def late(*args, **kwargs):
        time.sleep(delay_s)
        return scan_candidates(*args, **kwargs)

    monkeypatch.setattr(service.shard_pool, "scan_candidates", late)

    fresh = unit_vectors(2, 16, stream="shard-svc/spans").astype(np.float32)  # no cached answer

    def explain(i):
        query = engine.query("corpus").esimilar("emb", fresh[i], model=MODEL, top_k=K)
        return service.submit(query, tag=f"spans/q{i}", explain_analyze=True)

    def blocker(i):
        vector = np.random.default_rng(48_000 + i).standard_normal(16).astype(np.float32)
        return engine.query("corpus").esimilar("emb", vector, model=MODEL, top_k=1)

    held = hold_scan_slots(service, blocker)
    members = held.run_queued([lambda i=i: explain(i) for i in (0, 1)])
    for response in members:
        (scan,) = response.trace.find("coalesce.scan")
        (rescore,) = response.trace.find("rescore")
        assert scan.attrs["batch"] == 2 and scan.attrs["shards"] == 2, response.explain
        shards = response.trace.find("shard.scan")
        assert sorted(span.attrs["shard"] for span in shards) == [0, 1], response.explain
        for span in shards:
            assert span.start_s >= scan.start_s + delay_s, response.explain
            assert span.start_s + span.wall_s <= rescore.start_s + slack, response.explain


def test_shutdown_releases_all_segments():
    engine = make_engine()  # default 4k corpus
    service = QueryService(engine, coalesce=True, shard_procs=2)
    service.shard_pool.min_rows = 1
    prefix = service.shard_pool.segment_prefix
    queries = unit_vectors(4, 16, stream="shard-svc/shutdown").astype(np.float32)
    for n, q in enumerate(queries, 1):
        service.submit(
            engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=3),
            tag=f"shutdown/q{n}",
        )
    service.shutdown()
    assert leaked_segments(prefix) == []


def test_replaced_model_republishes_a_string_column():
    """A model replaced under its name leaves the catalog version alone;
    the pool must still scan the string column's rows under the new model."""
    words = [f"word-{i}" for i in range(600)]
    catalog = Catalog()
    catalog.register(
        "w",
        Table.from_arrays(
            Schema.of(Field("word", DataType.STRING), Field("wid", DataType.INT64)),
            {"word": words, "wid": np.arange(len(words))},
        ),
    )
    engine = Engine(catalog)
    engine.models.register("m", HashingEmbedder(dim=16, seed=9))
    # Near-free dispatch and no row floor: the pool fans out 600 rows.
    engine.cost_params = replace(engine.cost_params, shard_dispatch=1e-9)
    service = QueryService(engine, coalesce=True, shard_procs=2)
    service.shard_pool.min_rows = 1

    def served(**condition):
        return service.submit(
            engine.query("w").esimilar("word", "wrod-7", model="m", **condition)
        )

    try:
        served(threshold=0.3)
        engine.models.register("m", HashingEmbedder(dim=16, seed=1), replace=True)
        for condition in ({"threshold": 0.3}, {"top_k": 5}):
            want = engine.query("w").esimilar(
                "word", "wrod-7", model="m", **condition
            ).execute()
            got = served(**condition)
            for name in want.schema.names:
                assert np.array_equal(got.array(name), want.array(name)), condition
        snap = service.stats_snapshot()
        assert snap["shard"]["scans"] == 3 and snap["shard"]["errors"] == 0
        assert snap["shard"]["publishes"] == 2
    finally:
        service.shutdown()


def test_service_without_shard_procs_has_no_pool():
    engine = make_engine()
    service = QueryService(engine, coalesce=True)
    try:
        assert service.shard_pool is None
        assert service.health().shard == {}
        assert "shard" not in service.stats_snapshot()
    finally:
        service.shutdown()
