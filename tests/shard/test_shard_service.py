"""QueryService with shard workers: bit-identical results, health, metrics."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from _shard_utils import MODEL, corpus_vectors, make_engine
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
            with service.session() as session:
                barrier.wait()
                for qi in chunk:
                    results[qi] = session.execute(
                        engine.query("corpus").esimilar(
                            "emb", queries[qi], model=MODEL, top_k=K
                        )
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


def test_shutdown_releases_all_segments():
    engine = make_engine()  # default 4k corpus
    service = QueryService(engine, coalesce=True, shard_procs=2)
    service.shard_pool.min_rows = 1
    prefix = service.shard_pool.segment_prefix
    queries = unit_vectors(4, 16, stream="shard-svc/shutdown").astype(np.float32)
    with service.session() as session:
        for q in queries:
            session.execute(
                engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=3)
            )
    service.shutdown()
    assert leaked_segments(prefix) == []


def test_service_without_shard_procs_has_no_pool():
    engine = make_engine()
    service = QueryService(engine, coalesce=True)
    try:
        assert service.shard_pool is None
        assert service.health().shard == {}
        assert "shard" not in service.stats_snapshot()
    finally:
        service.shutdown()
