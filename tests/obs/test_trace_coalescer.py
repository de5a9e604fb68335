"""Trace attribution through the coalescer: every member of a shared scan
gets the scan and its own rescore on its own trace, under concurrency."""

from __future__ import annotations

import threading

import pytest
from _service_utils import DIM, MODEL, assert_tables_equal, blocker, make_engine

from repro.service import QueryService
from repro.workloads import unit_vectors

pytestmark = pytest.mark.obs

TOP_K = 5


def _explain(service, i, vector):
    with service.session(f"c{i}") as session:
        query = service.engine.query("corpus").esimilar(
            "emb", vector, model=MODEL, top_k=TOP_K
        )
        return session.execute(query, explain_analyze=True)


def _run_clients(service, vectors):
    """Barrier-release one thread per vector; collect QueryResponses."""
    n = len(vectors)
    barrier = threading.Barrier(n)
    responses = [None] * n
    errors = []

    def worker(i):
        try:
            barrier.wait()
            responses[i] = _explain(service, i, vectors[i])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return responses


def _serial_reference(vectors):
    """The same queries one at a time on a bare engine, no service layers."""
    engine = make_engine()
    return [
        engine.query("corpus")
        .esimilar("emb", vec, model=MODEL, top_k=TOP_K)
        .execute()
        for vec in vectors
    ]


def test_coalesced_demux_attributes_spans_per_query(
    query_vectors, hold_scan_slots
):
    vectors = query_vectors[:8]
    with QueryService(
        make_engine(),
        result_cache_size=0,
        obs_enabled=False,
    ) as service:
        held = hold_scan_slots(service, lambda i: blocker(service.engine, i))
        responses = held.run_queued(
            [lambda i=i, v=v: _explain(service, i, v) for i, v in enumerate(vectors)]
        )

    # Unique ids, one trace each.
    ids = [r.query_id for r in responses]
    assert len(set(ids)) == len(ids)

    batches = []
    for response in responses:
        trace = response.trace
        assert trace is not None
        scans = [s for s in trace.spans if s.name == "coalesce.scan"]
        rescores = [s for s in trace.spans if s.name == "rescore"]
        assert len(scans) == 1, response.explain
        assert len(rescores) == 1, response.explain
        scan = scans[0]
        assert scan.attrs["rows"] == 400
        assert scan.attrs["bytes_scanned"] > 0
        assert scan.attrs["batch"] == len(vectors)
        assert rescores[0].attrs["rows"] == TOP_K
        assert "coalesce.scan" in response.explain
        batches.append(scan.attrs["batch"])
    # Queued behind held slots, released together: ONE shared scan.
    assert batches == [len(vectors)] * len(vectors), batches

    # Attribution never altered results: bit-identical to serial execution.
    for response, expected in zip(responses, _serial_reference(vectors)):
        assert_tables_equal(response.table, expected, context=response.query_id)


def test_sixty_four_clients_sampled_tracing():
    # 64 distinct vectors: no query can dedupe through singleflight.
    vectors = unit_vectors(64, DIM, stream="obs-tests/coalesce64")
    with QueryService(
        make_engine(),
        result_cache_size=0,
        obs_enabled=True,
        obs_sample_rate=1.0,
        obs_ring_size=256,
    ) as service:
        responses = _run_clients(service, vectors)
        retained = service.recent_traces()

    ids = [r.query_id for r in responses]
    assert len(set(ids)) == 64
    for response in responses:
        trace = response.trace
        assert trace is not None
        assert trace.query_id == response.query_id
        assert trace.status == "ok"
        assert len([s for s in trace.spans if s.name == "coalesce.scan"]) == 1
        assert len([s for s in trace.spans if s.name == "rescore"]) == 1
    # All 64 retired into the ring (sampling rate 1.0, ring large enough).
    assert len(retained) == 64
    assert {t.query_id for t in retained} == set(ids)
