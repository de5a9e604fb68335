"""Trace attribution through the coalescer: every member of a shared scan
gets the scan, its own rescore and its own materialize on its own trace,
under concurrency."""

from __future__ import annotations

import threading

import pytest
from _service_utils import DIM, MODEL, assert_tables_equal, blocker, make_engine

from repro.service import QueryService
from repro.workloads import unit_vectors

pytestmark = pytest.mark.obs

TOP_K = 5


def _explain(service, i, vector):
    query = service.engine.query("corpus").esimilar(
        "emb", vector, model=MODEL, top_k=TOP_K
    )
    return service.submit(query, tag=f"c{i}/q1", explain_analyze=True)


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
        obs_sample_rate=0.0,
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
        tables = [s for s in trace.spans if s.name == "materialize"]
        assert len(scans) == 1, response.explain
        assert len(rescores) == 1, response.explain
        assert len(tables) == 1, response.explain
        scan = scans[0]
        assert scan.attrs["rows"] == 400
        assert scan.attrs["bytes_scanned"] > 0
        assert scan.attrs["batch"] == len(vectors)
        # The proof's span counts candidates, the table's span rows.
        assert rescores[0].attrs["candidates"] >= TOP_K
        assert "rows" not in rescores[0].attrs
        assert tables[0].attrs == {"rows": TOP_K}
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
        obs_sample_rate=1.0,
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
        assert len([s for s in trace.spans if s.name == "materialize"]) == 1
    # All 64 retired into the ring (sampling rate 1.0, ring large enough).
    assert len(retained) == 64
    assert {t.query_id for t in retained} == set(ids)


def test_foreign_spans_land_where_they_ran(query_vectors, hold_scan_slots):
    """Each member's foreign spans are placed at the moment their work
    began, not back from the moment they were appended: the shared scan
    ends before the member's rescore starts, and the rescore before its
    materialize starts."""
    vectors = query_vectors[:4]
    with QueryService(make_engine(), result_cache_size=0, obs_sample_rate=0.0) as service:
        alone = _explain(service, 99, query_vectors[4])
        held = hold_scan_slots(service, lambda i: blocker(service.engine, i))
        grouped = held.run_queued(
            [lambda i=i, v=v: _explain(service, i, v) for i, v in enumerate(vectors)]
        )
    slack = 1e-9  # float rounding of start + wall
    for response in [alone, *grouped]:
        (scan,) = response.trace.find("coalesce.scan")
        (rescore,) = response.trace.find("rescore")
        (table,) = response.trace.find("materialize")
        assert scan.start_s + scan.wall_s <= rescore.start_s + slack, response.explain
        assert rescore.start_s + rescore.wall_s <= table.start_s + slack, response.explain
