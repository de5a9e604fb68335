"""Shared test fixtures."""

from __future__ import annotations

import os
import threading
import time

# One BLAS thread, set before NumPy loads the library (the configuration
# the engine's own morsel parallelism and the e2e benchmark assume).  A
# threaded OpenBLAS call on a small contended box can stall a scheduler
# quantum — a flat 8 ms for a 256x256x32 GEMM, on every call.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings as _hypothesis_settings  # noqa: E402

# Property tests explore deterministically so the tier-1 gate cannot flake
# on a lucky random walk; per-test @settings still override other fields.
_hypothesis_settings.register_profile("deterministic", derandomize=True)
_hypothesis_settings.load_profile("deterministic")

from repro.embedding import HashingEmbedder  # noqa: E402
from repro.relational import DataType, Field, Schema, Table  # noqa: E402
from repro.workloads import unit_vectors  # noqa: E402


@pytest.fixture()
def small_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Two small, deterministic unit-vector relations."""
    left = unit_vectors(30, 8, seed=101)
    right = unit_vectors(40, 8, seed=202)
    return left, right


@pytest.fixture()
def schedule_every_task(monkeypatch):
    """Lift the shape rule's task floors: toy joins run inline, as one
    task (or one a worker), under them
    (``repro.vector.select.MIN_TASK_WORK`` / ``MIN_TASK_ROWS`` /
    ``WIDE_TASK_ROWS``), and a test that is about morsels, workers or
    ``engine.run`` needs them cut and scheduled."""
    from repro.vector import select

    monkeypatch.setattr(select, "MIN_TASK_WORK", 1)
    monkeypatch.setattr(select, "MIN_TASK_ROWS", 1)
    monkeypatch.setattr(select, "WIDE_TASK_ROWS", 1)


@pytest.fixture()
def hash_model() -> HashingEmbedder:
    return HashingEmbedder(dim=16, seed=7)


@pytest.fixture()
def people_table() -> Table:
    schema = Schema.of(
        Field("id", DataType.INT64),
        Field("name", DataType.STRING),
        Field("age", DataType.INT64),
        Field("score", DataType.FLOAT64),
    )
    rows = [
        {"id": 1, "name": "ada", "age": 36, "score": 9.5},
        {"id": 2, "name": "bob", "age": 41, "score": 7.25},
        {"id": 3, "name": "cyd", "age": 29, "score": 8.0},
        {"id": 4, "name": "dan", "age": 36, "score": 5.5},
        {"id": 5, "name": "eve", "age": 52, "score": 6.75},
    ]
    return Table.from_dicts(schema, rows)


class _HeldSlots:
    """Every shared-scan slot of a service's coalescer, held until released.

    One blocker query per slot (``engine.executor.n_threads`` of them) is
    submitted on its own thread and parked inside ``_execute_group`` on an
    ``Event``.  While they are parked every further request for the source
    must queue, so a test decides *exactly* which requests share the next
    group — no timer, no sleep-and-hope.
    """

    TIMEOUT_S = 60.0

    def __init__(self, service, make_blocker) -> None:
        self._coalescer = coalescer = service.coalescer
        self.slots = service.engine.executor.n_threads
        self._gate = threading.Event()
        entered = threading.Semaphore(0)
        execute = coalescer._execute_group

        def gated(key, requests):
            entered.release()
            assert self._gate.wait(self.TIMEOUT_S), "slots never released"
            return execute(key, requests)

        coalescer._execute_group = gated  # instance attribute: this service only
        self._threads = [
            threading.Thread(
                target=service.submit, args=(make_blocker(i),), daemon=True
            )
            for i in range(self.slots)
        ]
        for thread in self._threads:
            thread.start()
        for _ in self._threads:
            assert entered.acquire(timeout=self.TIMEOUT_S), "a slot stayed free"

    def wait_queued(self, n: int) -> None:
        """Block until ``n`` requests are queued behind the held slots."""
        deadline = time.monotonic() + self.TIMEOUT_S
        while self._coalescer.queued() < n:
            assert time.monotonic() < deadline, (
                f"only {self._coalescer.queued()} of {n} requests queued"
            )
            time.sleep(0.001)

    def run_queued(self, calls) -> list:
        """Run each zero-argument ``call`` on its own client thread, queued
        behind the held slots in list order, then release them together.

        Returns each call's result — or the exception it raised — in order.
        """
        outcomes = [None] * len(calls)

        def client(i, call):
            try:
                outcomes[i] = call()
            except BaseException as exc:  # surfaced to the test
                outcomes[i] = exc

        threads = [
            threading.Thread(target=client, args=(i, call), daemon=True)
            for i, call in enumerate(calls)
        ]
        for i, thread in enumerate(threads):
            thread.start()
            self.wait_queued(i + 1)  # arrival order is list order
        self.release()
        for thread in threads:
            thread.join(self.TIMEOUT_S)
            assert not thread.is_alive(), "a client never got its result"
        return outcomes

    def release(self) -> None:
        self._gate.set()
        for thread in self._threads:
            thread.join(self.TIMEOUT_S)
            assert not thread.is_alive(), "a blocker scan never finished"

    def restore(self) -> None:
        """Release, then drop the gate from the coalescer (teardown)."""
        self.release()
        self._coalescer.__dict__.pop("_execute_group", None)


@pytest.fixture()
def hold_scan_slots():
    """``hold(service, make_blocker) -> _HeldSlots``; released at teardown.

    ``make_blocker(i)`` builds the ``i``-th blocker query — any
    coalesceable E-selection on the source under test with a vector no
    other request uses.
    """
    held: list[_HeldSlots] = []

    def hold(service, make_blocker) -> _HeldSlots:
        held.append(_HeldSlots(service, make_blocker))
        return held[-1]

    yield hold
    for slots in held:
        slots.restore()
