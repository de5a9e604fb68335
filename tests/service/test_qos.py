"""QoS primitives: estimators, priority admission, shedding."""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from _service_utils import DIM, MODEL, assert_tables_equal, make_engine
from repro.engine import ExecutionEngine
from repro.errors import DeadlineExceededError, ServiceOverloadError
from repro.obs.trace import Tracer
from repro.service import AsyncQueryService, QueryService
from repro.service.admission import AdmissionController
from repro.service.qos import (
    ALPHA,
    MIN_SAMPLES,
    SAFETY,
    ExecTimeTracker,
    QueryResponse,
)
from repro.service.result_cache import ResultCache, params_signature
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.service, pytest.mark.qos]


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_ewma_seeds_and_converges():
    tracker = ExecTimeTracker()
    assert tracker.snapshot() == {"ewma_s": None, "n": 0}
    tracker.observe(10.0)
    assert tracker.snapshot() == {"ewma_s": 10.0, "n": 1}
    tracker.observe(0.0)
    assert tracker.snapshot() == {"ewma_s": pytest.approx(10.0 * (1 - ALPHA)), "n": 2}


def test_exec_tracker_cold_never_estimates():
    tracker = ExecTimeTracker()
    assert tracker.estimate() is None
    for _ in range(MIN_SAMPLES - 1):
        tracker.observe(0.1)
    assert tracker.estimate() is None  # still below MIN_SAMPLES
    tracker.observe(0.1)
    estimate = tracker.estimate()
    assert estimate == pytest.approx(0.1 * SAFETY)


def test_exec_tracker_is_one_ewma():
    tracker = ExecTimeTracker()
    tracker.observe(1.0)
    for _ in range(MIN_SAMPLES - 1):
        tracker.observe(0.0)
    ewma = (1 - ALPHA) ** (MIN_SAMPLES - 1)
    assert tracker.estimate() == pytest.approx(ewma * SAFETY)
    assert tracker.snapshot() == {"ewma_s": pytest.approx(ewma), "n": MIN_SAMPLES}


# ----------------------------------------------------------------------
# Result cache eviction
# ----------------------------------------------------------------------
def test_lru_eviction_beyond_capacity():
    cache = ResultCache(capacity=1, ttl_s=60.0)
    a = ("fp", ("v",), params_signature([np.ones(4, dtype=np.float32)]))
    b = ("fp", ("v",), params_signature([np.zeros(4, dtype=np.float32)]))
    cache.store(a, object())
    sentinel = object()
    cache.store(b, sentinel)
    assert cache.lookup(a) is None
    assert cache.lookup(b) is sentinel


# ----------------------------------------------------------------------
# Priority- and deadline-aware admission
# ----------------------------------------------------------------------
def test_priority_waiter_admitted_first():
    gate = AdmissionController(1, timeout_s=5.0)
    gate.acquire()
    order: list[str] = []
    ready = threading.Barrier(3)

    def waiter(name: str, priority: int) -> None:
        ready.wait()
        if name == "low":
            time.sleep(0)  # both park before the slot frees
        gate.acquire(priority=priority)
        order.append(name)
        gate.release()

    low = threading.Thread(target=waiter, args=("low", 0))
    high = threading.Thread(target=waiter, args=("high", 5))
    low.start()
    high.start()
    ready.wait()
    time.sleep(0.05)  # let both enqueue as waiters
    gate.release()
    low.join()
    high.join()
    assert order == ["high", "low"]


def test_deadline_shed_while_queued():
    gate = AdmissionController(1, timeout_s=5.0)
    gate.acquire()
    start = time.perf_counter()
    with pytest.raises(DeadlineExceededError):
        gate.acquire(deadline=time.perf_counter() + 0.03)
    assert time.perf_counter() - start < 1.0
    assert gate.stats.deadline_shed == 1
    gate.release()


def test_expired_deadline_sheds_immediately():
    gate = AdmissionController(4)
    with pytest.raises(DeadlineExceededError):
        gate.acquire(deadline=time.perf_counter() - 0.001)
    assert gate.inflight == 0


def test_overload_timeout_still_rejects_without_deadline():
    gate = AdmissionController(1, timeout_s=0.02)
    gate.acquire()
    with pytest.raises(ServiceOverloadError):
        gate.acquire()
    gate.release()


def test_wait_idle_drains():
    gate = AdmissionController(2)
    gate.acquire()
    assert not gate.wait_idle(timeout_s=0.02)
    threading.Timer(0.05, gate.release).start()
    assert gate.wait_idle(timeout_s=2.0)


# ----------------------------------------------------------------------
# submit_qos end to end
# ----------------------------------------------------------------------
def _topk(engine, qvec, k=5):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=k)


def test_submit_qos_no_deadline_matches_submit():
    engine = make_engine()
    service = QueryService(engine, result_cache_size=0)
    qvec = unit_vectors(1, DIM, stream="qos/basic")[0]
    response = service.submit_qos(_topk(engine, qvec))
    assert response.deadline_met is None
    assert response.latency_s > 0
    serial = _topk(engine, qvec).execute()
    assert_tables_equal(serial, response.table, context="submit_qos")


def test_submit_returns_plain_table():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="qos/plain")[0]
    table = service.submit(_topk(engine, qvec))
    assert table.num_rows == 5


def test_generous_deadline_met_and_counted():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="qos/met")[0]
    response = service.submit_qos(_topk(engine, qvec), deadline_s=30.0)
    assert response.deadline_met is True
    snap = service.stats_snapshot()["qos"]
    assert snap["with_deadline"] == 1
    assert snap["deadline_met"] == 1


@pytest.mark.parametrize("door", ["submit_qos", "async"])
def test_sheds_unmeetable(door):
    """Every QoS door sheds a deadline the warm tracker proves unmeetable,
    before anything executes."""
    engine = make_engine()
    service = QueryService(engine)
    executed = []
    service._execute = lambda *args: executed.append(args)
    for _ in range(MIN_SAMPLES):
        service.qos_tracker.observe(10.0)
    query = _topk(engine, unit_vectors(1, DIM, stream="qos/shed")[0])

    async def front():
        async with AsyncQueryService(service) as front:
            return await front.submit(query, deadline_s=5.0)

    submit = {
        "submit_qos": lambda: service.submit_qos(query, deadline_s=5.0),
        "async": lambda: asyncio.run(front()),
    }[door]
    with pytest.raises(DeadlineExceededError):
        submit()
    assert service.stats_snapshot()["qos"]["shed_unmeetable"] == 1
    assert executed == []


def test_shed_leaves_nothing_in_the_result_cache():
    """A shed query produced no result, so the same query without a
    deadline executes in full and answers exactly."""
    engine = make_engine()
    service = QueryService(engine)
    for _ in range(MIN_SAMPLES):
        service.qos_tracker.observe(10.0)
    qvec = unit_vectors(1, DIM, stream="qos/nocache")[0]
    with pytest.raises(DeadlineExceededError):
        service.submit_qos(_topk(engine, qvec), deadline_s=5.0)
    response = service.submit_qos(_topk(engine, qvec))
    assert not response.cache_hit
    serial = _topk(engine, qvec).execute()
    assert_tables_equal(serial, response.table, context="after shed")


def test_response_carries_no_degrade_fields():
    """``degraded`` is a read-only constant no caller can set, and there
    is no precision field: every response is the full-precision answer."""
    names = {f.name for f in fields(QueryResponse)}
    assert not {"degraded", "precision"} & names
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="qos/fields")[0]
    response = service.submit_qos(_topk(engine, qvec), deadline_s=30.0)
    assert response.degraded is False
    with pytest.raises(TypeError):
        QueryResponse(response.table, degraded=True)


def test_cold_tracker_never_sheds():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="qos/cold")[0]
    # Tight-but-feasible deadline on a cold service: must execute, not shed.
    response = service.submit_qos(_topk(engine, qvec), deadline_s=10.0)
    assert response.table.num_rows == 5


def test_shutdown_drains_inflight():
    engine = make_engine()
    service = QueryService(engine, max_inflight=2)
    qvec = unit_vectors(1, DIM, stream="qos/drain")[0]
    done = threading.Event()

    def worker() -> None:
        service.submit(_topk(engine, qvec))
        done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert service.shutdown(drain=True, timeout_s=5.0)
    assert done.is_set()
    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        service.submit(_topk(engine, qvec))


def test_stats_snapshot_has_qos_section():
    engine = make_engine()
    service = QueryService(engine)
    snap = service.stats_snapshot()
    assert "qos" in snap
    for key in (
        "with_deadline",
        "shed_expired",
        "shed_unmeetable",
        "deadline_met",
        "deadline_missed",
        "exec_estimates",
    ):
        assert key in snap["qos"]


def test_snapshot_has_the_keys_the_benchmark_reads():
    """The benchmark's traced run reads these counters through a lookup
    that answers 0 for a missing key, so a renamed one would zero a
    per-layer metric without failing anything there."""
    engine = make_engine()
    service = QueryService(engine)
    query = _topk(engine, unit_vectors(1, DIM, stream="qos/bench-keys")[0])
    assert not service.submit_qos(query).cache_hit
    assert service.submit_qos(query).cache_hit
    snap = service.stats_snapshot()
    read = {
        "service": (
            "submitted", "result_cache_hits", "singleflight_hits", "coalesced"
        ),
        "coalescer": ("groups", "coalesced_queries"),
        "admission": ("rejected",),
    }
    missing = [
        f"{section}.{key}"
        for section, keys in read.items()
        for key in keys
        if key not in snap.get(section, {})
    ]
    assert not missing, missing


def test_no_plan_cache_or_session_counters():
    """A miss is optimized afresh and clients submit directly, so no
    snapshot block or metric row reports a plan cache or sessions."""
    engine = make_engine()
    service = QueryService(engine)
    query = _topk(engine, unit_vectors(1, DIM, stream="qos/no-plan-cache")[0])
    service.submit(query, tag="client-0/q1")
    service.submit(query, tag="client-0/q2")
    snap = service.stats_snapshot()
    assert "plan_cache" not in snap
    assert "sessions" not in snap["service"]
    text = service.metrics()
    assert "repro_plan_cache_" not in text
    assert "repro_service_sessions" not in text
    assert "repro_service_submitted 2.0\n" in text


#: Keywords no constructor takes, because nothing set them: seven service
#: settings, the tracker's tuning (the ``ALPHA`` / ``SAFETY`` /
#: ``MIN_SAMPLES`` constants), the tracer's span-site gate and the
#: engine's work-stealing toggle.
REMOVED_KEYWORDS = [
    (QueryService, "admission_timeout_s", 1.0),
    (QueryService, "plan_cache_size", 8),
    (QueryService, "result_cache_ttl_s", 60.0),
    (QueryService, "obs_ring_size", 8),
    (QueryService, "obs_sites", "query"),
    (QueryService, "capture_max_mb", 1.0),
    (QueryService, "capture_keep", 1),
    (ExecTimeTracker, "alpha", 0.5),
    (ExecTimeTracker, "safety", 1.0),
    (ExecTimeTracker, "min_samples", 1),
    (Tracer, "sites", "query"),
    (ExecutionEngine, "work_stealing", False),
]


@pytest.mark.parametrize(
    "cls, keyword, value",
    REMOVED_KEYWORDS,
    ids=[f"{cls.__name__}-{keyword}" for cls, keyword, _ in REMOVED_KEYWORDS],
)
def test_removed_settings_stay_removed(cls, keyword, value):
    """A removed keyword is a ``TypeError``, never a silently kept default."""
    args = (make_engine(),) if cls is QueryService else ()
    with pytest.raises(TypeError):
        cls(*args, **{keyword: value})
