"""Coalescing scheduler: shared scans are bit-identical to serial runs.

Groups are forced deterministically: the ``hold_scan_slots`` fixture parks
one blocker scan in every slot, the test's requests queue behind them,
and releasing the slots hands the whole queue to ONE group scan.
"""

from __future__ import annotations

import math
import threading
from importlib import import_module
import time

import numpy as np
import pytest

from repro.algebra.physical_planner import unwrap_selection
from repro.core import ThresholdCondition
from repro.errors import ServiceError
from repro.service import QueryService

from _service_utils import DIM, MODEL, assert_tables_equal, blocker

pytestmark = pytest.mark.service


def _serial(engine, qvec, **cond):
    return (
        engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).execute()
    )


def _build(source, qvec, cond):
    return source.query("corpus").esimilar("emb", qvec, model=MODEL, **cond)


def _service(engine, **kwargs) -> QueryService:
    return QueryService(engine, coalesce=True, result_cache_size=0, **kwargs)


def _grouped(service, hold, builders):
    """Queue ``builders`` (in order, one client thread each) behind held
    slots and release them together; returns ``(outcomes, held slots)``,
    an outcome being the result table or the exception the client saw."""
    held = hold(service, lambda i: blocker(service.engine, i))
    outcomes = held.run_queued(
        [lambda b=b: service.submit(b) for b in builders]
    )
    return outcomes, held


def _assert_one_group(service, held, n):
    """The ``n`` queued requests rode ONE scan (plus one per blocker)."""
    snapshot = service.stats_snapshot()["coalescer"]
    assert snapshot["coalesced_queries"] == held.slots + n
    assert snapshot["groups"] == held.slots + 1
    assert snapshot["max_batch"] == n


def test_unwrap_shared_scan_shapes(service_engine, query_vectors):
    q = query_vectors[0]
    plain = service_engine.query("corpus").esimilar(
        "emb", q, model=MODEL, top_k=3
    )
    match = unwrap_selection(plain.optimized_plan())
    assert match is not None and match[1].column == "emb"

    wrapped = plain.select(["id", "similarity"]).limit(2)
    match = unwrap_selection(wrapped.optimized_plan())
    assert match is not None and len(match[0]) == 2

    joined = service_engine.query("corpus").ejoin(
        "other", left_on="emb", right_on="emb", model=MODEL, top_k=2
    )
    assert unwrap_selection(joined.optimized_plan()) is None


def test_coalesced_topk_bit_identical(
    service_engine, query_vectors, hold_scan_slots
):
    serial = [_serial(service_engine, q, top_k=5) for q in query_vectors[:12]]
    service = _service(service_engine)
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, {"top_k": 5}) for q in query_vectors[:12]],
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    _assert_one_group(service, held, 12)


def test_coalesced_threshold_bit_identical(
    service_engine, query_vectors, hold_scan_slots
):
    serial = [_serial(service_engine, q, threshold=0.2) for q in query_vectors[:8]]
    service = _service(service_engine)
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, {"threshold": 0.2}) for q in query_vectors[:8]],
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    _assert_one_group(service, held, 8)


def test_mixed_conditions_and_duplicates(
    service_engine, query_vectors, hold_scan_slots
):
    q0, q1 = query_vectors[0], query_vectors[1]
    specs = [
        (q0, {"top_k": 4}),
        # Same vector and k; the no-op floor keeps it a distinct query
        # (an identical one would piggyback via singleflight instead).
        (q0, {"top_k": 4, "min_similarity": -1.0}),
        (q0, {"threshold": 0.1}),  # duplicate vector, other condition
        (q1, {"top_k": 2, "min_similarity": 0.0}),
        (q1, {"threshold": 0.5}),
        (q0, {"top_k": 7}),  # duplicate vector, different k
    ]
    serial = [_serial(service_engine, q, **c) for q, c in specs]
    service = _service(service_engine)
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, c) for q, c in specs],
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    _assert_one_group(service, held, len(specs))
    assert service.coalescer.stats.deduped_queries == 4  # 6 requests, 2 vectors


def test_wrapped_plans_coalesce_and_match_serial(
    service_engine, query_vectors, hold_scan_slots
):
    def build(q):
        return (
            _build(service_engine, q, {"top_k": 6})
            .select(["id", "similarity"])
            .limit(3)
        )

    serial = [build(q).execute() for q in query_vectors[:6]]
    service = _service(service_engine)
    got, held = _grouped(
        service, hold_scan_slots, [build(q) for q in query_vectors[:6]]
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    _assert_one_group(service, held, 6)


def test_bad_request_does_not_poison_groupmates(
    service_engine, query_vectors, hold_scan_slots
):
    """A request failing in demux/materialize fails alone; queries that
    shared its scan still succeed with correct results."""
    good = _build(service_engine, query_vectors[0], {"top_k": 3})
    serial = good.execute()
    bad = _build(service_engine, query_vectors[1], {"top_k": 3}).select(
        ["no_such_column"]
    )
    service = _service(service_engine)
    (got_good, got_bad), held = _grouped(service, hold_scan_slots, [good, bad])
    _assert_one_group(service, held, 2)
    assert isinstance(got_bad, Exception)
    assert not isinstance(got_good, Exception), got_good
    assert_tables_equal(serial, got_good, context="groupmate")


def test_idle_service_never_sleeps(service_engine, query_vectors, monkeypatch):
    """No timer anywhere: with a free slot a request scans at once."""

    def no_sleep(_seconds):
        raise AssertionError("the serving path slept")

    service = _service(service_engine)
    monkeypatch.setattr(time, "sleep", no_sleep)
    for q in query_vectors[:4]:
        got = service.submit(_build(service_engine, q, {"top_k": 3}))
        assert_tables_equal(_serial(service_engine, q, top_k=3), got)
    snapshot = service.stats_snapshot()["coalescer"]
    assert snapshot["groups"] == 4 and snapshot["max_batch"] == 1


def test_max_batch_splits_a_long_queue(
    service_engine, query_vectors, hold_scan_slots
):
    serial = [_serial(service_engine, q, top_k=2) for q in query_vectors[:10]]
    service = _service(service_engine, coalesce_max_batch=4)
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, {"top_k": 2}) for q in query_vectors[:10]],
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    snapshot = service.stats_snapshot()["coalescer"]
    assert snapshot["groups"] == held.slots + 3  # 4 + 4 + 2
    assert snapshot["max_batch"] == 4
    assert service.coalescer.queued() == 0


def test_sixty_four_queued_clients_form_few_groups(
    service_engine, hold_scan_slots
):
    """What the gather window was for, by backpressure alone."""
    from _service_utils import DIM
    from repro.workloads import unit_vectors

    vectors = unit_vectors(64, DIM, stream="svc-tests/sixty-four")
    service = _service(service_engine, max_inflight=256)  # blockers + 64
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, {"top_k": 5}) for q in vectors],
    )
    for i, (q, b) in enumerate(zip(vectors, got)):
        assert_tables_equal(
            _serial(service_engine, q, top_k=5), b, context=f"query {i}"
        )
    groups = service.stats_snapshot()["coalescer"]["groups"] - held.slots
    assert groups <= math.ceil(64 / service.coalescer.max_batch) + 2


def test_followers_arriving_while_the_slot_frees_lose_nobody(
    service_engine, query_vectors
):
    """Arrivals race slot hand-overs on a one-slot engine, with the
    interpreter switching threads as often as it can: every client still
    gets its own exact result and nothing is left queued."""
    import sys

    from repro.engine import ExecutionEngine

    service_engine.executor = ExecutionEngine(n_threads=1)
    service = _service(service_engine, coalesce_max_batch=3)
    serial = [_serial(service_engine, q, top_k=3) for q in query_vectors]
    failures = []

    def client(i):
        try:
            for _ in range(6):
                got = service.submit(
                    _build(service_engine, query_vectors[i], {"top_k": 3})
                )
                assert_tables_equal(serial[i], got, context=f"client {i}")
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(query_vectors))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive(), "a client is still blocked"
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    snapshot = service.stats_snapshot()["coalescer"]
    assert snapshot["coalesced_queries"] == 6 * len(query_vectors)
    assert snapshot["max_batch"] <= 3
    assert service.coalescer.queued() == 0 and not service.coalescer._sources


def test_register_index_invalidates_result_cache(service_engine, query_vectors):
    """A new index can change the physical access path, so cached
    results from before the registration must not be served."""
    from repro.index import FlatIndex

    service = QueryService(service_engine, coalesce=False)
    builder = lambda: service_engine.query("corpus").esimilar(
        "emb", query_vectors[0], model=MODEL, top_k=3
    )
    service.submit(builder())
    service.submit(builder())
    assert service.stats.result_cache_hits == 1

    index = FlatIndex(query_vectors.shape[1])
    index.add(service_engine.catalog.get("corpus").array("emb"))
    service_engine.register_index("corpus", "emb", index)
    service.submit(builder())  # key changed: miss, re-executes
    assert service.stats.result_cache_hits == 1


def test_replaced_model_invalidates_result_cache(service_engine):
    """A raw query item embeds through the model registered under its
    name: after a replacement the cached answer is the old model's."""
    from repro.embedding import HashingEmbedder

    service = QueryService(service_engine, coalesce=False)
    builder = lambda: service_engine.query("corpus").esimilar(
        "emb", "a raw query string", model=MODEL, top_k=3
    )
    before = service.submit(builder())
    service_engine.models.register(MODEL, HashingEmbedder(dim=DIM, seed=9), replace=True)
    after = service.submit(builder())
    assert service.stats.result_cache_hits == 0
    assert_tables_equal(after, builder().execute(), context="after the replacement")
    assert not np.array_equal(after.array("id"), before.array("id"))


def test_group_error_propagates_to_all_members(
    service_engine, query_vectors, hold_scan_slots
):
    service = _service(service_engine)
    held = hold_scan_slots(service, lambda i: blocker(service_engine, i))
    gated = service.coalescer._execute_group

    def boom(key, requests):
        if len(requests) == 4:
            raise RuntimeError("shared scan exploded")
        return gated(key, requests)

    service.coalescer._execute_group = boom
    outcomes = held.run_queued(
        [
            lambda q=q: service.submit(_build(service_engine, q, {"top_k": 2}))
            for q in query_vectors[:4]
        ]
    )
    assert all(isinstance(exc, RuntimeError) for exc in outcomes), outcomes
    assert service.stats.failed == 4


def test_interrupted_leader_fails_followers_with_service_error(
    service_engine, query_vectors, hold_scan_slots, monkeypatch
):
    """``KeyboardInterrupt`` in a demux belongs to the leader's thread
    alone; followers get a typed error and none stays blocked."""
    mod = import_module("repro.core.eselect")  # ``repro.core.eselect`` is the function
    exact_select = mod.exact_select

    def interrupt(normalized, candidates, qvec, condition, floor=-np.inf):
        if isinstance(condition, ThresholdCondition):
            raise KeyboardInterrupt
        return exact_select(normalized, candidates, qvec, condition, floor)

    monkeypatch.setattr(mod, "exact_select", interrupt)
    service = _service(service_engine)
    builders = [
        _build(service_engine, query_vectors[0], {"top_k": 2}),
        _build(service_engine, query_vectors[1], {"threshold": 0.2}),
        _build(service_engine, query_vectors[2], {"top_k": 2}),
    ]
    outcomes, _ = _grouped(service, hold_scan_slots, builders)
    # The first client opened the queued group, so it led the scan: its
    # own demux had finished, the second request's raised on its thread.
    assert isinstance(outcomes[0], KeyboardInterrupt)
    assert isinstance(outcomes[1], ServiceError)
    assert isinstance(outcomes[2], ServiceError)
    assert service.coalescer.queued() == 0 and not service.coalescer._sources


def test_fallback_path_still_exact(
    service_engine, query_vectors, hold_scan_slots, monkeypatch
):
    """Force the completeness guard's extra pass and check exactness holds."""
    mod = import_module("repro.core.eselect")  # ``repro.core.eselect`` is the function
    exact_select = mod.exact_select

    def paranoid(normalized, candidates, qvec, condition, floor):
        # Pretend the candidate floor proves nothing: always rescan.
        return exact_select(normalized, candidates, qvec, condition, np.inf)

    monkeypatch.setattr(mod, "exact_select", paranoid)
    serial = [_serial(service_engine, q, top_k=5) for q in query_vectors[:6]]
    service = _service(service_engine)
    got, held = _grouped(
        service, hold_scan_slots,
        [_build(service_engine, q, {"top_k": 5}) for q in query_vectors[:6]],
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    assert service.coalescer.stats.fallbacks >= 6
