"""Deadline edge cases: expiry at submit / queued / executing, inversion."""

from __future__ import annotations

import threading
import time

import pytest

from _service_utils import DIM, MODEL, assert_tables_equal, make_engine
from repro.errors import DeadlineExceededError
from repro.service import QueryService
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.service, pytest.mark.qos]


def _topk(engine, qvec, k=5):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=k)


def test_deadline_expired_at_submit_sheds_before_admission():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="dl/expired")[0]
    with pytest.raises(DeadlineExceededError):
        service.submit_qos(_topk(engine, qvec), deadline_s=-0.001)
    snap = service.stats_snapshot()
    assert snap["qos"]["shed_expired"] == 1
    assert snap["qos"]["with_deadline"] == 1
    # Never admitted: the failure is pre-execution by construction.
    assert snap["service"]["submitted"] == 0
    assert snap["admission"]["deadline_shed"] == 1


def test_deadline_expiring_while_queued_sheds():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1)
    qvec = unit_vectors(2, DIM, stream="dl/queued")
    service.admission.acquire()  # hold the only slot
    try:
        start = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            service.submit_qos(_topk(engine, qvec[0]), deadline_s=0.05, timeout_s=5.0)
        waited = time.perf_counter() - start
        assert waited < 2.0  # shed at the deadline, not the 5 s timeout
        assert service.stats_snapshot()["qos"]["shed_expired"] == 1
    finally:
        service.admission.release()
    # The slot is usable again afterwards.
    response = service.submit_qos(_topk(engine, qvec[1]))
    assert response.table.num_rows == 5


def test_deadline_expiring_while_executing_returns_late_result():
    engine = make_engine()
    service = QueryService(engine)
    # Force execution to outlast the deadline while keeping the deadline
    # wide enough to clear admission: the cold tracker admits the query,
    # it runs long, and must come back flagged late rather than be
    # discarded mid-flight.
    real_execute = service._execute

    def slow_execute(plan):
        time.sleep(0.08)
        return real_execute(plan)

    service._execute = slow_execute
    qvec = unit_vectors(1, DIM, stream="dl/late")[0]
    response = service.submit_qos(_topk(engine, qvec), deadline_s=0.02)
    assert response.deadline_met is False
    serial = _topk(engine, qvec).execute()
    assert_tables_equal(serial, response.table, context="late result")
    snap = service.stats_snapshot()["qos"]
    assert snap["deadline_missed"] == 1
    assert snap["shed_expired"] == 0


def test_tight_deadline_singleton_overtakes_waiting_batch():
    """Priority inversion guard: a tight-deadline high-priority singleton
    submitted while low-priority work queues for the only slot must be
    admitted ahead of every earlier-arrived batch waiter."""
    engine = make_engine()
    service = QueryService(
        engine, max_inflight=1, coalesce=False, result_cache_size=0
    )
    vecs = unit_vectors(6, DIM, stream="dl/inversion")
    order: list[str] = []
    order_lock = threading.Lock()
    service.admission.acquire()  # stall everything behind one held slot
    batch_threads = []

    def batch(i: int) -> None:
        service.submit_qos(_topk(engine, vecs[i]), priority=0)
        with order_lock:
            order.append(f"batch-{i}")

    for i in range(4):
        thread = threading.Thread(target=batch, args=(i,), daemon=True)
        thread.start()
        batch_threads.append(thread)
    time.sleep(0.1)  # let the batch park in the admission queue

    def singleton() -> None:
        service.submit_qos(
            _topk(engine, vecs[5]), deadline_s=10.0, priority=10
        )
        with order_lock:
            order.append("singleton")

    sthread = threading.Thread(target=singleton, daemon=True)
    sthread.start()
    time.sleep(0.05)
    service.admission.release()  # open the gate: highest priority first
    sthread.join(timeout=5.0)
    for thread in batch_threads:
        thread.join(timeout=5.0)
    assert order[0] == "singleton", f"priority inversion: order={order}"
    assert len(order) == 5

