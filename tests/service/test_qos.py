"""QoS primitives: estimators, priority admission, degradation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from _service_utils import DIM, MODEL, assert_tables_equal, make_engine
from repro.errors import DeadlineExceededError, ServiceOverloadError
from repro.service import QueryService
from repro.service.admission import AdmissionController
from repro.service.qos import EWMA, ExecTimeTracker, QoSParams
from repro.service.semantic_cache import SemanticResultCache, params_signature
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.service, pytest.mark.qos]


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_ewma_seeds_and_converges():
    ewma = EWMA(alpha=0.5)
    assert ewma.value is None and ewma.n == 0
    assert ewma.update(10.0) == 10.0
    assert ewma.update(0.0) == 5.0
    assert ewma.n == 2


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        EWMA(alpha=0.0)
    with pytest.raises(ValueError):
        EWMA(alpha=1.5)


def test_exec_tracker_cold_never_estimates():
    tracker = ExecTimeTracker(min_samples=3)
    assert tracker.estimate("full") is None
    tracker.observe("full", 0.1)
    tracker.observe("full", 0.1)
    assert tracker.estimate("full") is None  # still below min_samples
    tracker.observe("full", 0.1)
    estimate = tracker.estimate("full")
    assert estimate == pytest.approx(0.1 * tracker.safety)


def test_exec_tracker_modes_are_independent():
    tracker = ExecTimeTracker(min_samples=1, safety=1.0)
    tracker.observe("full", 1.0)
    tracker.observe("degraded", 0.01)
    assert tracker.estimate("full") == pytest.approx(1.0)
    assert tracker.estimate("degraded") == pytest.approx(0.01)
    snap = tracker.snapshot()
    assert snap["full"]["n"] == 1 and snap["degraded"]["n"] == 1


def test_qos_params_relative_deadline():
    params = QoSParams.from_relative(0.5, now=100.0)
    assert params.deadline == pytest.approx(100.5)
    assert params.remaining(now=100.2) == pytest.approx(0.3)
    assert QoSParams.from_relative(None).deadline is None
    assert QoSParams().remaining() is None


# ----------------------------------------------------------------------
# Result cache eviction
# ----------------------------------------------------------------------
def test_lru_eviction_beyond_capacity():
    cache = SemanticResultCache(capacity=1, ttl_s=60.0)
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
    assert not response.degraded
    assert response.precision == "fp32"
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


def test_degrades_under_recall_floor_instead_of_shedding():
    engine = make_engine()
    service = QueryService(engine)
    # Warm the tracker with an inflated execution-time estimate so a
    # modest deadline becomes provably unmeetable at full precision.
    for _ in range(service.qos_tracker.min_samples):
        service.qos_tracker.observe("full", 10.0)
    qvec = unit_vectors(1, DIM, stream="qos/degrade")[0]
    response = service.submit_qos(
        _topk(engine, qvec), deadline_s=5.0, min_recall=0.9
    )
    assert response.degraded
    assert response.precision in ("int8", "pq")
    assert response.table.num_rows == 5
    assert "similarity" in response.table.schema.names
    assert service.stats_snapshot()["qos"]["degraded"] == 1


def test_sheds_unmeetable_without_recall_floor():
    engine = make_engine()
    service = QueryService(engine)
    for _ in range(service.qos_tracker.min_samples):
        service.qos_tracker.observe("full", 10.0)
    qvec = unit_vectors(1, DIM, stream="qos/shed")[0]
    with pytest.raises(DeadlineExceededError):
        service.submit_qos(_topk(engine, qvec), deadline_s=5.0)
    assert service.stats_snapshot()["qos"]["shed_unmeetable"] == 1


def test_degraded_result_not_cached_as_exact():
    engine = make_engine()
    service = QueryService(engine)
    for _ in range(service.qos_tracker.min_samples):
        service.qos_tracker.observe("full", 10.0)
    qvec = unit_vectors(1, DIM, stream="qos/nocache")[0]
    degraded = service.submit_qos(
        _topk(engine, qvec), deadline_s=5.0, min_recall=0.9
    )
    assert degraded.degraded
    # The same query without a deadline must execute at full precision —
    # a cache hit off the degraded run would be a silent approximation.
    exact = service.submit_qos(_topk(engine, qvec))
    assert not exact.degraded
    assert not exact.cache_hit
    serial = _topk(engine, qvec).execute()
    assert_tables_equal(serial, exact.table, context="post-degrade")


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
        "degraded",
        "deadline_met",
        "deadline_missed",
        "exec_estimates",
    ):
        assert key in snap["qos"]
