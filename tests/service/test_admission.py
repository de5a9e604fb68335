"""Admission controller: bounded concurrency and backpressure."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.service.admission import AdmissionController

pytestmark = pytest.mark.service


def test_admits_up_to_limit():
    gate = AdmissionController(3)
    for _ in range(3):
        gate.acquire()
    assert gate.inflight == 3
    for _ in range(3):
        gate.release()
    assert gate.inflight == 0
    assert gate.stats.admitted == 3
    assert gate.stats.completed == 3
    assert gate.stats.peak_inflight == 3


def test_rejects_on_timeout():
    gate = AdmissionController(1, timeout_s=0.02)
    gate.acquire()
    with pytest.raises(ServiceOverloadError):
        gate.acquire()
    assert gate.stats.rejected == 1
    gate.release()
    gate.acquire()  # slot is free again


def test_blocked_submission_proceeds_when_slot_frees():
    gate = AdmissionController(1, timeout_s=5.0)
    gate.acquire()
    acquired = threading.Event()

    def waiter():
        gate.acquire()
        acquired.set()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    time.sleep(0.02)
    assert not acquired.is_set()
    gate.release()
    assert acquired.wait(timeout=2.0)
    assert gate.stats.queue_wait_seconds > 0
    gate.release()


def test_release_without_acquire_raises():
    gate = AdmissionController(2)
    with pytest.raises(ServiceError):
        gate.release()


def test_invalid_limit_rejected():
    with pytest.raises(ServiceError):
        AdmissionController(0)


def test_many_threads_never_exceed_limit():
    gate = AdmissionController(4, timeout_s=10.0)
    observed = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            gate.acquire()
            with lock:
                observed.append(gate.inflight)
            time.sleep(0.001)
            gate.release()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert max(observed) <= 4
    assert gate.stats.peak_inflight <= 4
    assert gate.stats.completed == 60
