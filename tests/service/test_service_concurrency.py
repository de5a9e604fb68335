"""QueryService end to end: mixed concurrent traffic, caches, stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError
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
            barrier.wait()
            for n, i in enumerate(range(worker, len(builders), 8), 1):
                results[i] = service.submit(builders[i], tag=f"client-{worker}/q{n}")
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


def test_repeated_traffic_hits_caches(query_vectors, monkeypatch):
    from repro.algebra.optimizer import Optimizer

    optimized = []
    original = Optimizer.optimize

    def counted(self, plan):
        optimized.append(plan)
        return original(self, plan)

    monkeypatch.setattr(Optimizer, "optimize", counted)
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    builder = lambda i=0: engine.query("corpus").esimilar(
        "emb", query_vectors[i], model=MODEL, top_k=3
    )
    first = service.submit(builder())
    again = service.submit(builder())
    assert again is first  # exact semantic-cache hit returns the cached table
    assert service.stats.result_cache_hits == 1
    # A cached answer plans nothing; each miss is optimized once.
    assert len(optimized) == 1
    service.submit(builder(1))
    assert len(optimized) == 2


def test_a_miss_is_optimized_as_the_builder_does(query_vectors, monkeypatch):
    """An admitted miss runs exactly the plan ``QueryBuilder.execute``
    would: ``Optimizer(catalog).optimize(plan)``, with the same answer."""
    from repro.algebra.optimizer import Optimizer

    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    builders = _mixed_builders(engine, query_vectors[:4])
    expected = [
        Optimizer(catalog=engine.catalog).optimize(b.plan) for b in builders
    ]
    ran = []
    original = QueryService._execute

    def checked(self, optimized):
        # Compared before running: an unoptimized E-join is a slow NLJ.
        assert optimized == expected[len(ran)]
        assert optimized.explain() == builders[len(ran)].optimized_plan().explain()
        ran.append(optimized)
        return original(self, optimized)

    monkeypatch.setattr(QueryService, "_execute", checked)
    for builder in builders:
        assert_tables_equal(service.submit(builder), builder.execute())
    assert len(ran) == len(builders)


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


@pytest.mark.parametrize("failure", ["error", "interrupt"])
def test_a_singleflight_duplicate_gets_the_owners_failure(query_vectors, monkeypatch, failure):
    """A duplicate parked on an execution that fails raises that failure —
    the owner's own error object, or for an interrupt (which belongs to the
    owner's thread) a service error — and is not counted as a hit."""
    import repro.service.service as svc_mod

    engine = make_engine()
    service = QueryService(engine, coalesce=False, result_cache_size=0)
    release, entered = threading.Event(), threading.Event()
    raised = RuntimeError("owner failed") if failure == "error" else KeyboardInterrupt()

    def failing(self, optimized):
        entered.set()
        assert release.wait(timeout=30.0), "never released"
        raise raised

    monkeypatch.setattr(svc_mod.QueryService, "_execute", failing)
    builder = lambda: engine.query("corpus").esimilar(
        "emb", query_vectors[0], model=MODEL, top_k=3
    )
    outcomes: dict = {}

    def submit(name):
        try:
            outcomes[name] = service.submit(builder())
        except BaseException as exc:  # surfaced below
            outcomes[name] = exc

    owner = threading.Thread(target=submit, args=("owner",), daemon=True)
    owner.start()
    assert entered.wait(timeout=30.0)  # the owner holds the singleflight slot
    follower = threading.Thread(target=submit, args=("dup",), daemon=True)
    follower.start()
    time.sleep(0.05)  # the follower parks on the in-flight slot
    release.set()
    owner.join(timeout=30.0)
    follower.join(timeout=30.0)
    assert not owner.is_alive() and not follower.is_alive()
    assert outcomes["owner"] is raised
    if failure == "error":
        assert outcomes["dup"] is raised
    else:
        assert isinstance(outcomes["dup"], ServiceError), outcomes["dup"]
        assert "interrupted" in str(outcomes["dup"])
    assert service.stats.singleflight_hits == 0
    assert not service._inflight_results  # the slot is gone either way


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


def test_shutdown_refuses_new_submissions(query_vectors):
    engine = make_engine()
    service = QueryService(engine, coalesce=False)
    service.submit(
        engine.query("corpus").esimilar(
            "emb", query_vectors[0], model=MODEL, top_k=2
        )
    )
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
    service.submit(
        engine.query("other").ejoin(
            "corpus", left_on="emb", right_on="emb", model=MODEL, top_k=2
        ),
        tag="tagged/q1",
    )
    tags = engine.executor.stats.by_tag
    assert any(tag.startswith("tagged/q") for tag in tags), tags


@pytest.mark.parametrize("door", ["eselect", "builder", "service", "coalesced"])
def test_a_huge_finite_query_answers_as_its_direction(door):
    """A query whose every cell is finite but whose fp32 squared norm
    overflows is scaled by a power of two, not divided down to a zero
    vector: ``q * 2**70`` answers exactly as ``q``, scores included."""
    import numpy as np

    from repro.core import TopKCondition, eselect
    from repro.embedding import HashingEmbedder
    from repro.relational import Catalog, DataType, Field, Table
    from repro.relational.column import Column

    rows = np.random.default_rng(7).standard_normal((50, 4)).astype(np.float32)
    q = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
    catalog = Catalog()
    catalog.register(
        "t",
        Table.from_columns(
            [
                Column(Field("id", DataType.INT64), np.arange(50)),
                Column(Field("emb", DataType.TENSOR, dim=4), rows),
            ]
        ),
    )
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=4))
    service = QueryService(engine, coalesce=door == "coalesced")

    def answer(query):
        if door == "eselect":
            result = eselect(rows, query, TopKCondition(3))
            return result.ids, result.scores
        builder = engine.query("t").esimilar("emb", query, model=MODEL, top_k=3)
        table = builder.execute() if door == "builder" else service.submit(builder)
        return table.array("id"), table.array("similarity")

    want_ids, want_scores = answer(q)
    got_ids, got_scores = answer(q * np.float32(2.0**70))
    assert np.array_equal(got_ids, want_ids)
    assert got_scores.tobytes() == want_scores.tobytes()
    assert want_scores[0] > 0


@pytest.mark.parametrize("door", ["eselect", "builder", "service", "coalesced"])
def test_a_query_holding_inf_is_still_rejected(door):
    """Only a finite query is scaled down: an infinite cell raises
    ``JoinError`` at every door, as before."""
    import numpy as np

    from repro.core import TopKCondition, eselect
    from repro.errors import JoinError

    engine = make_engine()
    service = QueryService(engine, coalesce=door == "coalesced")
    q = np.zeros(16, dtype=np.float32)
    q[3] = np.inf
    with pytest.raises(JoinError, match="non-finite"):
        if door == "eselect":
            eselect(engine.catalog.get("corpus").array("emb"), q, TopKCondition(3))
        else:
            builder = engine.query("corpus").esimilar("emb", q, model=MODEL, top_k=3)
            builder.execute() if door == "builder" else service.submit(builder)
