"""AsyncQueryService: asyncio submission front over the blocking service."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from _service_utils import DIM, MODEL, assert_tables_equal, make_engine
from repro.errors import DeadlineExceededError, ServiceError
from repro.service import AsyncQueryService, QueryService
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.service, pytest.mark.qos]


def _topk(engine, qvec, k=5):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=k)


def _run(coro):
    return asyncio.run(coro)


def test_submit_returns_exact_response():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="front/exact")[0]

    async def go():
        async with AsyncQueryService(service) as front:
            return await front.submit(_topk(engine, qvec))

    response = _run(go())
    serial = _topk(engine, qvec).execute()
    assert_tables_equal(serial, response.table, context="async front")
    assert front_stats(service)["completed"] == 1


def front_stats(service):
    # Helper for the test above: the front is gone after the context
    # exits, so stash its stats on the service for inspection.
    return service.extra_front_stats


@pytest.fixture(autouse=True)
def _stash_front_stats(monkeypatch):
    """Record every front's stats on its service as it closes."""
    original = AsyncQueryService.close

    async def close(self, *, drain: bool = True) -> None:
        await original(self, drain=drain)
        self.service.extra_front_stats = self.stats.snapshot()

    monkeypatch.setattr(AsyncQueryService, "close", close)


def test_many_idle_connections_over_bounded_dispatch():
    """Far more concurrent coroutines than dispatcher threads or slots.
    The dispatched queries wait on a gate, opened once every submission is
    queued (the two dispatchers hold one each at most), so the peak does
    not depend on how fast the loop enqueues against the drain."""
    engine = make_engine()
    service = QueryService(engine, max_inflight=2)
    vecs = unit_vectors(40, DIM, stream="front/many")
    gate, workers = threading.Event(), 2

    async def go():
        async with AsyncQueryService(service, workers=workers) as front:
            dispatch = front._dispatch

            def held(pending):
                gate.wait(60)  # bounded: a gate never opened fails the peak, not the run
                dispatch(pending)

            async def open_gate():
                for _ in range(20_000):  # ~20 s at most
                    if front.queued >= len(vecs) - workers:
                        break
                    await asyncio.sleep(0.001)
                gate.set()

            front._dispatch = held

            responses = await asyncio.gather(
                *(front.submit(_topk(engine, v)) for v in vecs), open_gate()
            )
        return responses[:-1]

    responses = _run(go())
    assert len(responses) == 40
    assert all(r.table.num_rows == 5 for r in responses)
    stats = front_stats(service)
    assert stats["completed"] == 40
    assert stats["queued_peak"] >= len(vecs) - workers  # coroutines queued, not threaded


def test_priority_order_drains_high_first():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1, coalesce=False)
    vecs = unit_vectors(5, DIM, stream="front/prio")
    order: list[int] = []

    async def go():
        front = AsyncQueryService(service, workers=1)
        # Fill the queue before starting workers so dispatch order is
        # purely the heap's: highest priority first, FIFO within a level.
        front._threads = [None]  # allow submits pre-start
        tasks = []

        async def one(i, prio):
            response = await front.submit(_topk(engine, vecs[i]), priority=prio)
            order.append(i)
            return response

        async with asyncio.TaskGroup() as tg:
            for i, prio in enumerate((0, 5, 0, 9, 5)):
                tasks.append(tg.create_task(one(i, prio)))
                await asyncio.sleep(0)  # let the submit enqueue
            front._threads = []
            front.start()
        await front.close()

    _run(go())
    assert order == [3, 1, 4, 0, 2]


def test_deadline_expired_in_front_queue_is_shed():
    engine = make_engine()
    service = QueryService(engine)
    vecs = unit_vectors(2, DIM, stream="front/shed")

    async def go():
        async with AsyncQueryService(service, workers=1) as front:
            blocker = asyncio.ensure_future(
                front.submit(_topk(engine, vecs[0]))
            )
            # The only worker is busy (or about to be); this entry's
            # deadline lapses before any dispatcher reaches it.
            with pytest.raises(DeadlineExceededError, match="queued"):
                task = asyncio.ensure_future(
                    front.submit(_topk(engine, vecs[1]), deadline_s=1e-4)
                )
                await asyncio.sleep(0.05)
                await task
            await blocker

    _run(go())
    assert front_stats(service)["shed_expired"] >= 1


def test_residual_deadline_forwarded_to_service():
    engine = make_engine()
    service = QueryService(engine)
    seen: dict = {}
    original = service.submit_qos

    def spy(query, **kwargs):
        seen.update(kwargs)
        return original(query, **kwargs)

    service.submit_qos = spy
    qvec = unit_vectors(1, DIM, stream="front/residual")[0]

    async def go():
        async with AsyncQueryService(service, workers=1) as front:
            await front.submit(
                _topk(engine, qvec), deadline_s=30.0, priority=3
            )

    _run(go())
    assert 0 < seen["deadline_s"] <= 30.0
    assert seen["priority"] == 3


def test_close_drain_false_rejects_queued():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1)
    vecs = unit_vectors(8, DIM, stream="front/reject")
    # Pin the single dispatcher inside the first query long enough for
    # close() to reach the still-queued rest.
    real_execute = service._execute

    def slow_execute(plan):
        time.sleep(0.1)
        return real_execute(plan)

    service._execute = slow_execute

    async def go():
        front = AsyncQueryService(service, workers=1).start()
        tasks = [
            asyncio.ensure_future(front.submit(_topk(engine, v)))
            for v in vecs
        ]
        await asyncio.sleep(0.02)  # let the worker pick up the first entry
        await front.close(drain=False)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        errors = [o for o in outcomes if isinstance(o, ServiceError)]
        ok = [o for o in outcomes if not isinstance(o, BaseException)]
        # In-flight work finishes; everything still queued is rejected.
        assert len(ok) >= 1
        assert len(errors) == len(vecs) - len(ok)
        with pytest.raises(ServiceError, match="closed"):
            await front.submit(_topk(engine, vecs[0]))

    _run(go())
    assert front_stats(service)["rejected_on_close"] >= 1


def test_close_drain_completes_all_queued():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1)
    vecs = unit_vectors(6, DIM, stream="front/drain")

    async def go():
        front = AsyncQueryService(service, workers=2).start()
        tasks = [
            asyncio.ensure_future(front.submit(_topk(engine, v)))
            for v in vecs
        ]
        await asyncio.sleep(0)
        start = time.perf_counter()
        await front.close(drain=True)
        drained = time.perf_counter() - start
        responses = await asyncio.gather(*tasks)
        return responses, drained

    responses, _ = _run(go())
    assert len(responses) == 6
    assert all(r.table.num_rows == 5 for r in responses)
    stats = front_stats(service)
    assert stats["completed"] == 6
    assert stats["rejected_on_close"] == 0


class CountingCondition(threading.Condition):
    """A condition that counts the waits it returns from."""

    def __init__(self) -> None:
        super().__init__()
        self.wakes = 0

    def wait(self, timeout=None):
        woke = super().wait(timeout)
        self.wakes += 1  # the lock is held again here
        return woke


def _until_waiting(cond: threading.Condition, n: int) -> None:
    deadline = time.perf_counter() + 30
    while len(cond._waiters) < n:
        assert time.perf_counter() < deadline, "dispatchers never went idle"
        time.sleep(0.001)


def test_a_dispatch_wakes_no_idle_dispatcher():
    """One queued miss wakes the one dispatcher that takes it; finishing it
    wakes nobody (the other dispatcher sleeps through), until close()."""
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="front/wakes")[0]
    front = AsyncQueryService(service, workers=2)
    front._cond = cond = CountingCondition()
    front.start()
    _until_waiting(cond, 2)

    async def go():
        response = await front.submit(_topk(engine, qvec))
        _until_waiting(cond, 2)
        with cond:
            wakes = cond.wakes
        await front.close()
        return response, wakes

    response, wakes = _run(go())
    assert response.table.num_rows == 5
    assert wakes == 1
    assert front_stats(service)["completed"] == 1


def test_submit_before_start_raises():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="front/unstarted")[0]

    async def go():
        front = AsyncQueryService(service)
        with pytest.raises(ServiceError, match="not started"):
            await front.submit(_topk(engine, qvec))

    _run(go())
