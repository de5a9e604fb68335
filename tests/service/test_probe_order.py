"""Submission order: keyed once, probed, and only then admitted.

A result-cache hit executes nothing, so it must need nothing an execution
needs — no admission slot, no dispatcher thread — while an expired
deadline, a closed door and a re-registered table keep meaning what they
meant when the probe sat behind admission.
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
import threading

import pytest

from _service_utils import DIM, MODEL, assert_tables_equal, make_corpus_table, make_engine
from repro.errors import DeadlineExceededError, ServiceError
from repro.service import AsyncQueryService, QueryService
from repro.workloads import unit_vectors

pytestmark = [pytest.mark.service, pytest.mark.qos]


def _topk(engine, qvec, k=5):
    return engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=k)


class _BlockedExecution:
    """``service._execute`` parked on an event: whatever reaches execution
    holds its admission slot (and its dispatcher) until ``release``."""

    def __init__(self, service) -> None:
        self.entered = threading.Semaphore(0)
        self._gate = threading.Event()
        execute = service._execute

        def gated(optimized, tag):
            self.entered.release()
            assert self._gate.wait(30.0), "never released"
            return execute(optimized, tag)

        service._execute = gated

    def wait_entered(self) -> None:
        assert self.entered.acquire(timeout=30.0), "nothing reached execution"

    def release(self) -> None:
        self._gate.set()


def test_cached_answer_needs_no_admission_slot():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1, admission_timeout_s=0.05)
    cached_q, blocked_q = unit_vectors(2, DIM, stream="probe/slot")
    first = service.submit(_topk(engine, cached_q))
    blocked = _BlockedExecution(service)
    holder = threading.Thread(
        target=service.submit, args=(_topk(engine, blocked_q),), daemon=True
    )
    holder.start()
    blocked.wait_entered()  # the one slot is taken and stays taken
    try:
        before = service.admission.stats_snapshot()
        assert before["inflight"] == 1
        response = service.submit_qos(_topk(engine, cached_q))
        assert response.cache_hit and response.table is first
        after = service.admission.stats_snapshot()
        assert (after["admitted"], after["submitted"], after["inflight"]) == (
            before["admitted"], before["submitted"], 1
        )
        snap = service.stats_snapshot()["service"]
        assert (snap["submitted"], snap["completed"], snap["result_cache_hits"]) == (3, 2, 1)
    finally:
        blocked.release()
        holder.join(30.0)


def test_front_answers_a_cached_query_while_its_dispatcher_is_blocked():
    engine = make_engine()
    service = QueryService(engine)
    cached_q, blocked_q = unit_vectors(2, DIM, stream="probe/front")
    first = service.submit(_topk(engine, cached_q))
    blocked = _BlockedExecution(service)

    async def go():
        front = AsyncQueryService(service, workers=1).start()
        loop_thread = threading.get_ident()
        stuck = asyncio.ensure_future(front.submit(_topk(engine, blocked_q)))
        await asyncio.get_running_loop().run_in_executor(None, blocked.wait_entered)
        try:
            # No dispatcher is free and none becomes free: only the loop
            # itself can answer this.
            response = await asyncio.wait_for(
                front.submit(_topk(engine, cached_q)), timeout=10.0
            )
            assert threading.get_ident() == loop_thread
            assert response.cache_hit and response.table is first
            assert front.queued == 0 and not stuck.done()
            stats = front.stats.snapshot()
            assert (stats["submitted"], stats["completed"], stats["queued_peak"]) == (2, 1, 1)
        finally:
            blocked.release()
        await stuck
        await front.close()
        with pytest.raises(ServiceError, match="closed"):
            await front.submit(_topk(engine, cached_q))
        never_started = AsyncQueryService(service)
        with pytest.raises(ServiceError, match="not started"):
            await never_started.submit(_topk(engine, cached_q))
        service.shutdown()
        reopened = AsyncQueryService(service, workers=1).start()
        with pytest.raises(ServiceError, match="shut down"):
            await reopened.submit(_topk(engine, cached_q))
        await reopened.close()

    asyncio.run(go())


def test_reregistered_table_is_a_miss_never_the_old_answer():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="probe/rereg")[0]
    old = service.submit(_topk(engine, qvec))
    engine.catalog.register(
        "corpus", make_corpus_table(stream="probe/rereg-v2"), replace=True
    )
    response = service.submit_qos(_topk(engine, qvec))
    assert not response.cache_hit and response.table is not old
    assert_tables_equal(
        _topk(engine, qvec).execute(), response.table, context="after re-registration"
    )
    assert service.submit_qos(_topk(engine, qvec)).cache_hit


def test_table_reregistered_while_the_miss_is_queued_in_the_front():
    """The front keys a miss on the loop and the dispatcher executes it
    later: the versions are read again at pickup, so the answer is the new
    table's, stored under the new table's key."""
    engine = make_engine()
    service = QueryService(engine)
    qvec, blocked_q = unit_vectors(2, DIM, stream="probe/rereg-queued")
    blocked = _BlockedExecution(service)

    async def go():
        async with AsyncQueryService(service, workers=1) as front:
            stuck = asyncio.ensure_future(front.submit(_topk(engine, blocked_q)))
            await asyncio.get_running_loop().run_in_executor(None, blocked.wait_entered)
            queued = asyncio.ensure_future(front.submit(_topk(engine, qvec)))
            await asyncio.sleep(0)
            assert front.queued == 1  # keyed under the old versions, not yet run
            engine.catalog.register(
                "corpus", make_corpus_table(stream="probe/rereg-queued-v2"), replace=True
            )
            blocked.release()
            await stuck
            return await queued

    response = asyncio.run(go())
    fresh = _topk(engine, qvec).execute()
    assert_tables_equal(fresh, response.table, context="queued across re-registration")
    again = service.submit_qos(_topk(engine, qvec))
    assert again.cache_hit and again.table is response.table


def test_expired_deadline_is_shed_although_the_answer_is_cached():
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream="probe/expired")[0]
    service.submit(_topk(engine, qvec))
    with pytest.raises(DeadlineExceededError):
        service.submit_qos(_topk(engine, qvec), deadline_s=-0.001)

    async def through_front():
        async with AsyncQueryService(service, workers=1) as front:
            with pytest.raises(DeadlineExceededError):
                await front.submit(_topk(engine, qvec), deadline_s=-0.001)
            return front.stats.snapshot()

    front_stats = asyncio.run(through_front())
    assert (front_stats["failed"], front_stats["completed"]) == (1, 0)
    snap = service.stats_snapshot()
    assert snap["qos"]["shed_expired"] == 2
    assert snap["service"]["result_cache_hits"] == 0
    assert snap["result_cache"]["exact_hits"] == 1  # the front's probe found it
    assert service.submit_qos(_topk(engine, qvec), deadline_s=30.0).cache_hit


@pytest.mark.parametrize("door", ["submit", "front"])
def test_a_miss_is_keyed_exactly_once(monkeypatch, door):
    import repro.service.plan_cache as plan_cache_mod
    import repro.service.service as service_mod

    calls = {"fingerprint": 0, "params_signature": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    counted_fingerprint = counting("fingerprint", plan_cache_mod.fingerprint)
    monkeypatch.setattr(plan_cache_mod, "fingerprint", counted_fingerprint)
    monkeypatch.setattr(service_mod, "fingerprint", counted_fingerprint)
    monkeypatch.setattr(
        service_mod,
        "params_signature",
        counting("params_signature", service_mod.params_signature),
    )
    engine = make_engine()
    service = QueryService(engine)
    qvec = unit_vectors(1, DIM, stream=f"probe/once-{door}")[0]

    if door == "submit":
        response = service.submit_qos(_topk(engine, qvec))
    else:

        async def go():
            async with AsyncQueryService(service, workers=1) as front:
                return await front.submit(_topk(engine, qvec))

        response = asyncio.run(go())
    assert not response.cache_hit
    assert calls == {"fingerprint": 1, "params_signature": 1}
    assert service.stats_snapshot()["plan_cache"]["misses"] == 1


def test_cached_submit_stays_inside_its_call_budget():
    """The hit path, counted instead of timed: a sampled-out cached
    ``submit`` makes at most 120 Python-level calls (about 200 when the
    probe sat behind admission and the plan cache) and none of the three
    that mean it waited for, or rebuilt, something only an execution
    needs."""
    engine = make_engine()
    service = QueryService(engine, obs_sample_rate=0.0)
    query = _topk(engine, unit_vectors(1, DIM, stream="probe/budget")[0])
    for _ in range(3):
        service.submit(query)
    profile = cProfile.Profile()
    profile.enable()
    table = service.submit(query)
    profile.disable()
    assert table is service.submit(query)
    stats = pstats.Stats(profile)
    called = {
        f"{file.rsplit('/', 1)[-1]}:{name}" for file, _, name in stats.stats
    }
    assert "service.py:submit_qos" in called and "semantic_cache.py:lookup" in called
    assert not called & {
        "dataclasses.py:replace", "threading.py:wait", "admission.py:acquire"
    }
    assert stats.total_calls <= 120, stats.total_calls


def test_loop_probes_race_dispatchers_and_a_writer():
    """Hits answered on the loop, misses executing on dispatchers and a
    writer re-registering the table, all at once and with the interpreter
    switching threads far more often than it normally does: every request
    is counted exactly once and every answer is one catalog version's."""
    import sys

    engine = make_engine()
    service = QueryService(engine, max_inflight=4)
    pool = unit_vectors(6, DIM, stream="probe/stress")
    tables = [make_corpus_table(stream=f"probe/stress-v{v}") for v in range(3)]
    truths = []
    for table in tables:
        engine.catalog.register("corpus", table, replace=True)
        truths.append([_topk(engine, q).execute() for q in pool])
    n_clients, per_client = 12, 40
    stop = threading.Event()

    def writer():
        version = 0
        while not stop.wait(0.002):
            version = (version + 1) % len(tables)
            engine.catalog.register("corpus", tables[version], replace=True)

    async def client(front, c):
        answers = []
        for i in range(per_client):
            j = (c + i) % len(pool)
            response = await front.submit(_topk(engine, pool[j]))
            answers.append((j, response.table))
            if i % 4 == 0:
                await asyncio.sleep(0)
        return answers

    async def go():
        async with AsyncQueryService(service, workers=3) as front:
            batches = await asyncio.wait_for(
                asyncio.gather(*(client(front, c) for c in range(n_clients))),
                timeout=120.0,
            )
            return batches, front.stats.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        batches, front_stats = asyncio.run(go())
    finally:
        stop.set()
        thread.join(30.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    total = n_clients * per_client
    for j, table in (answer for batch in batches for answer in batch):
        assert any(
            all(
                (table.array(name) == truth[j].array(name)).all()
                for name in table.schema.names
            )
            for truth in truths
        ), f"answer for vector {j} matches no catalog version"
    assert (front_stats["submitted"], front_stats["completed"], front_stats["failed"]) == (
        total, total, 0
    )
    snap = service.stats_snapshot()
    assert (snap["service"]["submitted"], snap["service"]["completed"]) == (total, total)
    assert snap["service"]["result_cache_hits"] > 0
    assert snap["admission"]["admitted"] == total - snap["service"]["result_cache_hits"]
    assert snap["admission"]["inflight"] == 0
