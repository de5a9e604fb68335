"""Retry policy: typing, jitter bounds, budgets, deadline truncation.

All timing runs on a fake clock — the suite never sleeps for real.
"""

from __future__ import annotations

import pytest

from repro.errors import PermanentFault, TransientFault
from repro.reliability.retry import (
    BASE_S,
    CAP_S,
    MAX_ATTEMPTS,
    RetryBudget,
    RetryPolicy,
    RetryStats,
)


class FakeClock:
    """Manual clock whose sleep() advances time instead of blocking."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def make_policy(clock: FakeClock, **kwargs) -> RetryPolicy:
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_s", 0.001)
    kwargs.setdefault("cap_s", 0.05)
    return RetryPolicy(
        kwargs.pop("max_attempts"),
        kwargs.pop("base_s"),
        kwargs.pop("cap_s"),
        clock=clock,
        sleep=clock.sleep,
        **kwargs,
    )


class Flaky:
    """Callable failing with ``exc`` on the first ``n`` invocations."""

    def __init__(self, n: int, exc: type[Exception] = TransientFault) -> None:
        self.remaining = n
        self.exc = exc
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc("flaky")
        return "ok"


def test_success_first_try_never_sleeps():
    clock = FakeClock()
    bound = make_policy(clock).bind()
    assert bound.call(lambda: 42) == 42
    assert clock.sleeps == []


def test_transient_failures_retried_to_success():
    clock = FakeClock()
    bound = make_policy(clock).bind()
    flaky = Flaky(2)
    assert bound.call(flaky) == "ok"
    assert flaky.calls == 3
    assert len(clock.sleeps) == 2
    assert bound.local_retries == 2


def test_permanent_failure_not_retried():
    clock = FakeClock()
    bound = make_policy(clock).bind()
    flaky = Flaky(1, exc=PermanentFault)
    with pytest.raises(PermanentFault):
        bound.call(flaky)
    assert flaky.calls == 1
    assert clock.sleeps == []


def test_plain_exceptions_not_retried():
    clock = FakeClock()
    bound = make_policy(clock).bind()
    with pytest.raises(ValueError):
        bound.call(Flaky(1, exc=ValueError))
    assert clock.sleeps == []


def test_gives_up_after_max_attempts():
    clock = FakeClock()
    stats = RetryStats()
    bound = make_policy(clock, max_attempts=4, stats=stats).bind()
    flaky = Flaky(100)
    with pytest.raises(TransientFault):
        bound.call(flaky)
    assert flaky.calls == 4
    assert len(clock.sleeps) == 3
    snap = stats.snapshot()
    assert snap["giveups"] == 1
    assert snap["retries"] == 3
    assert snap["attempts"] == 4


def test_jitter_bounds_and_decorrelation():
    """Every sleep lies in [base, cap]; sleep n+1 <= max(base, 3*sleep n)."""
    clock = FakeClock()
    base, cap = 0.002, 0.04
    bound = make_policy(
        clock, max_attempts=20, base_s=base, cap_s=cap, seed=7
    ).bind()
    with pytest.raises(TransientFault):
        bound.call(Flaky(100))
    assert len(clock.sleeps) == 19
    for s in clock.sleeps:
        assert base <= s <= cap
    for prev, nxt in zip(clock.sleeps, clock.sleeps[1:]):
        assert nxt <= max(base, min(cap, prev * 3.0)) + 1e-12


def test_jitter_stream_is_seeded():
    def sleeps(seed: int) -> list[float]:
        clock = FakeClock()
        bound = make_policy(clock, max_attempts=10, seed=seed).bind()
        with pytest.raises(TransientFault):
            bound.call(Flaky(100))
        return clock.sleeps

    assert sleeps(3) == sleeps(3)
    assert sleeps(3) != sleeps(4)


def test_budget_exhaustion_stops_retries():
    clock = FakeClock()
    stats = RetryStats()
    policy = make_policy(clock, max_attempts=10, stats=stats)
    budget = RetryBudget(3)
    bound = policy.bind(budget=budget)
    flaky = Flaky(100)
    with pytest.raises(TransientFault):
        bound.call(flaky)
    # 1 initial attempt + 3 budgeted retries, then the budget gate trips.
    assert flaky.calls == 4
    assert budget.remaining == 0
    assert stats.snapshot()["budget_exhausted"] == 1


def test_budget_shared_across_bound_calls():
    clock = FakeClock()
    policy = make_policy(clock, max_attempts=10)
    budget = RetryBudget(2)
    first = policy.bind(budget=budget)
    assert first.call(Flaky(2)) == "ok"  # consumes the whole budget
    second = policy.bind(budget=budget)
    flaky = Flaky(1)
    with pytest.raises(TransientFault):
        second.call(flaky)
    assert flaky.calls == 1  # no budget left: first failure is final


def test_deadline_truncates_backoff():
    clock = FakeClock()
    stats = RetryStats()
    policy = make_policy(
        clock, max_attempts=10, base_s=1.0, cap_s=1.0, stats=stats
    )
    # Backoff is exactly 1s (base == cap); deadline leaves only 0.5s.
    bound = policy.bind(deadline=clock.now + 0.5)
    flaky = Flaky(100)
    with pytest.raises(TransientFault):
        bound.call(flaky)
    assert flaky.calls == 1
    assert clock.sleeps == []
    assert stats.snapshot()["deadline_truncations"] == 1


def test_deadline_with_room_allows_retry():
    clock = FakeClock()
    policy = make_policy(clock, max_attempts=10, base_s=0.01, cap_s=0.01)
    bound = policy.bind(deadline=clock.now + 10.0)
    assert bound.call(Flaky(2)) == "ok"
    assert len(clock.sleeps) == 2


def test_the_engine_policy_is_the_module_constants():
    """The retry settings have no constructor defaults of their own and
    no config fields: ``from_config()`` builds the engine's policy from
    the module constants, its jitter stream seeded from the config."""
    from repro.config import get_config

    with pytest.raises(TypeError):
        RetryPolicy()
    policy = RetryPolicy.from_config()
    assert (policy.max_attempts, policy.base_s, policy.cap_s) == (MAX_ATTEMPTS, BASE_S, CAP_S)
    assert (MAX_ATTEMPTS, BASE_S, CAP_S) == (3, 0.001, 0.05)
    assert policy.seed == get_config().stream_seed("retry-jitter")
