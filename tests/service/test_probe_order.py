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
import time

import numpy as np
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
        self.calls = 0
        self._gate = threading.Event()
        execute = service._execute

        def gated(optimized):
            self.calls += 1
            self.entered.release()
            assert self._gate.wait(30.0), "never released"
            return execute(optimized)

        service._execute = gated

    def wait_entered(self) -> None:
        assert self.entered.acquire(timeout=30.0), "nothing reached execution"

    def release(self) -> None:
        self._gate.set()


def test_cached_answer_needs_no_admission_slot():
    engine = make_engine()
    service = QueryService(engine, max_inflight=1)
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
        response = service.submit_qos(_topk(engine, cached_q), timeout_s=0.05)
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


def test_a_miss_that_queued_is_probed_again_before_it_executes():
    """An identical query that waited in the admission queue while its
    twin executed is answered from the result its twin stored, not
    executed a second time, and is counted once as a cache hit."""
    engine = make_engine()
    service = QueryService(engine, max_inflight=1)
    qvec = unit_vectors(1, DIM, stream="probe/requeue")[0]
    blocked = _BlockedExecution(service)
    answers = {}

    def submit(name):
        answers[name] = service.submit_qos(_topk(engine, qvec))

    first = threading.Thread(target=submit, args=("first",), daemon=True)
    first.start()
    blocked.wait_entered()  # the one slot is taken and stays taken
    twin = threading.Thread(target=submit, args=("twin",), daemon=True)
    twin.start()
    try:
        give_up = time.monotonic() + 30.0
        while service.admission.stats_snapshot()["waiting"] != 1:
            assert time.monotonic() < give_up, "the twin never queued"
            time.sleep(0.001)
    finally:
        blocked.release()
    first.join(30.0)
    twin.join(30.0)
    assert not first.is_alive() and not twin.is_alive()
    assert blocked.calls == 1
    assert not answers["first"].cache_hit
    assert answers["twin"].cache_hit
    assert answers["twin"].table is answers["first"].table
    snap = service.stats_snapshot()
    service_counts = snap["service"]
    assert (
        service_counts["submitted"],
        service_counts["completed"],
        service_counts["result_cache_hits"],
    ) == (2, 2, 1)
    assert snap["admission"]["admitted"] == 2


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


def _raw(engine):
    """A raw query string: the model registered as ``MODEL`` embeds it."""
    return engine.query("corpus").esimilar("emb", "a raw query string", model=MODEL, top_k=5)


def _reregister(engine):
    engine.catalog.register(
        "corpus", make_corpus_table(stream="probe/window-v2"), replace=True
    )


def _replace_model(engine):
    from repro.embedding import HashingEmbedder

    engine.models.register(MODEL, HashingEmbedder(dim=DIM, seed=9), replace=True)


@pytest.mark.parametrize(
    "change, build",
    [
        (_reregister, lambda engine: _topk(engine, unit_vectors(1, DIM, stream="probe/window")[0])),
        (_replace_model, _raw),
    ],
    ids=["table", "model"],
)
def test_a_version_change_while_the_miss_is_queued_in_the_front(change, build):
    """The front keys a miss on the loop and a dispatcher executes it
    later; in between its table is re-registered or its model replaced.
    The versions are read again at pickup, so the answer is serial
    execution's on the new version alone, it is stored under the new
    version's key (the key the loop saw holds nothing), and a later
    request on the new version gets that answer, never the old one."""
    engine = make_engine()
    service = QueryService(engine)
    blocked_q = unit_vectors(1, DIM, stream="probe/window-blocker")[0]
    old = build(engine).execute()
    _, old_key, _ = service.probe(build(engine))
    blocked = _BlockedExecution(service)

    async def go():
        async with AsyncQueryService(service, workers=1) as front:
            stuck = asyncio.ensure_future(front.submit(_topk(engine, blocked_q)))
            await asyncio.get_running_loop().run_in_executor(None, blocked.wait_entered)
            queued = asyncio.ensure_future(front.submit(build(engine)))
            await asyncio.sleep(0)
            assert front.queued == 1  # keyed under the old versions, not yet run
            change(engine)
            blocked.release()
            await stuck
            response = await queued
            later = await front.submit(build(engine))
            return response, later

    response, later = asyncio.run(go())
    new = build(engine).execute()
    assert not np.array_equal(old.array("id"), new.array("id"))
    assert not response.cache_hit
    assert_tables_equal(new, response.table, context="queued across the change")
    _, new_key, stored = service.probe(build(engine))
    assert new_key != old_key and stored is response.table
    assert service.results.lookup(old_key) is None
    assert later.cache_hit and later.table is response.table
    assert service.submit_qos(build(engine)).table is response.table


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
    import repro.service.service as service_mod
    from repro.algebra.optimizer import Optimizer

    calls = {"fingerprint": 0, "params_signature": 0, "optimize": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        service_mod, "fingerprint", counting("fingerprint", service_mod.fingerprint)
    )
    monkeypatch.setattr(
        service_mod,
        "params_signature",
        counting("params_signature", service_mod.params_signature),
    )
    monkeypatch.setattr(Optimizer, "optimize", counting("optimize", Optimizer.optimize))
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
    assert calls == {"fingerprint": 1, "params_signature": 1, "optimize": 1}


def _profiled_calls(profile) -> tuple[int, set]:
    stats = pstats.Stats(profile)
    return stats.total_calls, {
        f"{file.rsplit('/', 1)[-1]}:{name}" for file, _, name in stats.stats
    }


#: What only the miss path may call: the query scope (and its span), the
#: scoped submission, admission's wait and the plan copy it once made.
_MISS_ONLY = {
    "trace.py:__enter__", "service.py:_submit_scoped", "dataclasses.py:replace",
    "threading.py:wait", "admission.py:acquire",
}


def test_cached_submit_stays_inside_its_call_budget():
    """The hit path, counted instead of timed: a sampled-out cached
    ``submit`` completes in one step — probe, one completion — and makes
    at most 60 Python-level calls.  It made about 200 when the probe sat
    behind admission and the plan cache, 67 while a hit still entered the
    query scope, the scoped submission and a no-op span, and 54 since;
    the budget sits about 10% over that."""
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
    total, called = _profiled_calls(profile)
    assert {"service.py:submit_qos", "service.py:_complete", "result_cache.py:lookup"} <= called
    assert not called & _MISS_ONLY
    assert total <= 60, total


def test_a_front_hit_stays_inside_its_call_budget():
    """The same through the async front: a sampled-out cached
    ``AsyncQueryService.submit`` is answered on the event loop from its
    own probe, counted in one hold of the front's lock, and makes at most
    66 Python-level calls (76 while the service re-entered the miss
    path's scope for it; 60 since; about 10% over that)."""
    engine = make_engine()
    service = QueryService(engine, obs_sample_rate=0.0)
    query = _topk(engine, unit_vectors(1, DIM, stream="probe/front-budget")[0])

    async def go():
        async with AsyncQueryService(service, workers=1) as front:
            for _ in range(3):
                await front.submit(query)
            profile = cProfile.Profile()
            profile.enable()
            response = await front.submit(query)
            profile.disable()
            return response, profile, front.stats.snapshot()

    response, profile, front_stats = asyncio.run(go())
    assert response.cache_hit
    assert (front_stats["submitted"], front_stats["completed"]) == (4, 4)
    total, called = _profiled_calls(profile)
    assert {
        "async_front.py:submit", "service.py:submit_qos", "service.py:_complete",
        "result_cache.py:lookup",
    } <= called
    assert not called & _MISS_ONLY
    assert total <= 66, total


def test_a_served_miss_stays_inside_its_call_budget(monkeypatch):
    """The miss path, counted instead of timed: one sampled-out coalesced
    selection on a source whose caps have landed (``_caps_utils``'
    corpus), a top-10 and a threshold, each with a fresh query vector.
    While every query ran on a context copied from the engine, and the
    engine re-read the config for its executor, these misses made 785 and
    665 calls; then 704 and 584.  Since the one-batch top-k fold, typed
    row takes, thread events only where someone waits and the one-row
    probe's folded NumPy calls they made 389 and 344, with the
    service's optimizer rules built once 383 and 338, and with the
    result-cache key's and lookup's folded calls 374 and 329.  The budgets sit
    about 10% over 389 and 344, room for drift across NumPy versions, and
    at least 35% under 704 and 584."""
    from _caps_utils import TRIGGER, clustered, land_caps, make_engine as caps_engine

    from repro.algebra import physical_planner

    monkeypatch.setattr(physical_planner, "SELECTIONS_PER_BUILD", TRIGGER)
    engine = caps_engine()
    vectors = clustered(64, 9)
    land_caps(engine, vectors)
    service = QueryService(engine, obs_sample_rate=0.0)
    budgets = {"top_k": (10, 428), "threshold": (0.9, 379)}
    fresh = iter(vectors[TRIGGER:])

    def miss(name, value):
        return engine.query("corpus").esimilar("vec", next(fresh), model="m", **{name: value})

    for name, (value, _) in budgets.items():  # warm: every lazy import done
        service.submit(miss(name, value))
    counts = {}
    for name, (value, budget) in budgets.items():
        query = miss(name, value)
        profile = cProfile.Profile()
        profile.enable()
        service.submit(query)
        profile.disable()
        stats = pstats.Stats(profile)
        called = {f"{file.rsplit('/', 1)[-1]}:{fn}" for file, _, fn in stats.stats}
        assert {"coalescer.py:_execute_group", "caps.py:probe_by_rows"} <= called, name
        counts[name] = (stats.total_calls, budget)
    assert all(n <= budget for n, budget in counts.values()), counts


def test_loop_probes_race_dispatchers_and_a_writer():
    """Hits answered on the loop, misses executing on dispatchers and a
    writer re-registering the table, all at once and with the interpreter
    switching threads far more often than it normally does: every request
    is counted exactly once and every answer is one catalog version's.

    The writer is paced by requests, not by the clock: the clients signal
    it after every ``per_version``-th completed request, so each version
    serves several repeats of each vector and some are cache hits however
    fast or slow the box runs."""
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
    per_version = 24  # completed requests between two re-registrations
    stop = threading.Event()
    bumps = threading.Semaphore(0)
    completed = 0

    def writer():
        version = 0
        while True:
            bumps.acquire()
            if stop.is_set():
                return
            version = (version + 1) % len(tables)
            engine.catalog.register("corpus", tables[version], replace=True)

    async def client(front, c):
        nonlocal completed
        answers = []
        for i in range(per_client):
            j = (c + i) % len(pool)
            response = await front.submit(_topk(engine, pool[j]))
            answers.append((j, response.table))
            completed += 1
            if completed % per_version == 0:
                bumps.release()
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
        bumps.release()
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
