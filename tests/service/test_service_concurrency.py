"""QueryService end to end: sessions, mixed concurrent traffic, stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError, SessionClosedError
from repro.query import Engine
from repro.service import QueryService

from _service_utils import MODEL, assert_tables_equal, make_engine

pytestmark = pytest.mark.service


def _mixed_builders(engine: Engine, qvecs) -> list:
    """A mixed bag of eselect/ejoin queries over the shared catalog."""
    builders = []
    for i, q in enumerate(qvecs):
        kind = i % 4
        if kind == 0:
            builders.append(
                engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=3)
            )
        elif kind == 1:
            builders.append(
                engine.query("corpus").esimilar(
                    "emb", q, model=MODEL, threshold=0.25
                )
            )
        elif kind == 2:
            builders.append(
                engine.query("corpus")
                .esimilar("emb", q, model=MODEL, top_k=5)
                .select(["id", "similarity"])
            )
        else:
            builders.append(
                engine.query("other").ejoin(
                    "corpus",
                    left_on="emb",
                    right_on="emb",
                    model=MODEL,
                    top_k=2,
                )
            )
    return builders


def test_mixed_concurrent_traffic_matches_serial(query_vectors):
    serial_engine = make_engine()
    serial = [
        b.execute() for b in _mixed_builders(serial_engine, query_vectors[:16])
    ]

    engine = make_engine()
    service = QueryService(engine, coalesce=True)
    builders = _mixed_builders(engine, query_vectors[:16])
    results = [None] * len(builders)
    errors = []
    barrier = threading.Barrier(8)

    def client(worker: int):
        try:
            with service.session(f"client-{worker}") as session:
                barrier.wait()
                for i in range(worker, len(builders), 8):
                    results[i] = session.execute(builders[i])
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    for i, (a, b) in enumerate(zip(serial, results)):
        assert_tables_equal(a, b, context=f"query {i}")
    snapshot = service.stats_snapshot()
    assert snapshot["service"]["completed"] == 16
    assert snapshot["admission"]["peak_inflight"] <= 8


def test_repeated_traffic_hits_caches(query_vectors):
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    builder = lambda i=0: engine.query("corpus").esimilar(
        "emb", query_vectors[i], model=MODEL, top_k=3
    )
    first = service.submit(builder())
    again = service.submit(builder())
    assert again is first  # exact semantic-cache hit returns the cached table
    assert service.stats.result_cache_hits == 1
    # A cached answer plans nothing; the next payload of the shape reuses
    # the optimized template.
    assert (service.plans.stats.hits, service.plans.stats.misses) == (0, 1)
    service.submit(builder(1))
    assert (service.plans.stats.hits, service.plans.stats.misses) == (1, 1)


def test_singleflight_suppresses_concurrent_duplicates(
    query_vectors, monkeypatch
):
    import repro.service.service as svc_mod

    engine = make_engine()
    service = QueryService(
        engine, coalesce=False, result_cache_size=0  # force execution path
    )
    q = query_vectors[0]
    release = threading.Event()
    entered = threading.Event()
    original = svc_mod.QueryService._execute

    def gated(self, optimized):
        entered.set()
        release.wait(timeout=5.0)
        return original(self, optimized)

    monkeypatch.setattr(svc_mod.QueryService, "_execute", gated)
    builder = lambda: engine.query("corpus").esimilar(
        "emb", q, model=MODEL, top_k=3
    )
    results: dict = {}
    owner = threading.Thread(
        target=lambda: results.__setitem__("owner", service.submit(builder())),
        daemon=True,
    )
    owner.start()
    assert entered.wait(timeout=5.0)  # owner holds the singleflight slot
    follower = threading.Thread(
        target=lambda: results.__setitem__("dup", service.submit(builder())),
        daemon=True,
    )
    follower.start()
    time.sleep(0.05)  # follower parks on the in-flight slot
    assert "dup" not in results
    release.set()
    owner.join(timeout=5.0)
    follower.join(timeout=5.0)
    assert results["dup"] is results["owner"]
    assert service.stats.singleflight_hits == 1


def test_admission_backpressure_rejects(query_vectors):
    engine = make_engine()
    service = QueryService(engine, max_inflight=1, coalesce=False)
    release = threading.Event()
    entered = threading.Event()

    import repro.service.service as svc_mod

    original = svc_mod.QueryService._execute

    def slow_execute(self, optimized):
        entered.set()
        release.wait(timeout=5.0)
        return original(self, optimized)

    svc_mod.QueryService._execute = slow_execute
    try:
        t = threading.Thread(
            target=lambda: service.submit(
                engine.query("corpus").esimilar(
                    "emb", query_vectors[0], model=MODEL, top_k=2
                )
            ),
            daemon=True,
        )
        t.start()
        assert entered.wait(timeout=5.0)
        with pytest.raises(ServiceOverloadError):
            service.submit(
                engine.query("corpus").esimilar(
                    "emb", query_vectors[1], model=MODEL, top_k=2
                ),
                timeout_s=0.02,
            )
    finally:
        release.set()
        t.join(timeout=5.0)
        svc_mod.QueryService._execute = original
    assert service.admission.stats.rejected == 1


def test_session_lifecycle(query_vectors):
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    session = service.session("s1")
    session.execute(
        session.query("corpus").esimilar(
            "emb", query_vectors[0], model=MODEL, top_k=2
        )
    )
    session.close()
    with pytest.raises(SessionClosedError):
        session.execute(
            session.query("corpus").esimilar(
                "emb", query_vectors[1], model=MODEL, top_k=2
            )
        )
    assert session.queries == 1  # closed submissions are not counted
    assert session.errors == 0

    service.shutdown()
    with pytest.raises(ServiceError):
        service.submit(
            engine.query("corpus").esimilar(
                "emb", query_vectors[2], model=MODEL, top_k=2
            )
        )


@pytest.mark.usefixtures("schedule_every_task")  # morsels carry the tag
def test_per_query_morsel_tagging(query_vectors):
    from repro.engine import ExecutionEngine

    engine = make_engine()
    # The physical operators only schedule on the engine when it has
    # workers; pin two so tagging is exercised regardless of host CPUs.
    engine.executor = ExecutionEngine(n_threads=2)
    service = QueryService(engine, coalesce=False)
    with service.session("tagged") as session:
        session.execute(
            session.query("other").ejoin(
                "corpus", left_on="emb", right_on="emb", model=MODEL, top_k=2
            )
        )
    tags = engine.executor.stats.by_tag
    assert any(tag.startswith("tagged/q") for tag in tags), tags
