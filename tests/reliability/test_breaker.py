"""Circuit breaker state machine and registry behaviour (fake clock)."""

from __future__ import annotations

from repro.reliability.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(threshold=3, cooldown=10.0):
    clock = FakeClock()
    return CircuitBreaker(threshold, cooldown, clock=clock), clock


def test_starts_closed_and_allows():
    breaker, _ = make_breaker()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_trips_after_threshold_consecutive_failures():
    breaker, _ = make_breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.trips == 1


def test_success_resets_consecutive_count():
    breaker, _ = make_breaker(threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED  # never saw 2 in a row


def test_half_open_single_trial_after_cooldown():
    breaker, clock = make_breaker(threshold=1, cooldown=10.0)
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(10.0)
    assert breaker.allow()  # the single trial
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()  # everyone else keeps waiting


def test_half_open_success_closes():
    breaker, clock = make_breaker(threshold=1, cooldown=5.0)
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_half_open_failure_reopens_and_restarts_cooldown():
    breaker, clock = make_breaker(threshold=3, cooldown=5.0)
    for _ in range(3):
        breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()  # trial failed: straight back to open
    assert breaker.state == OPEN
    assert breaker.trips == 2
    clock.advance(4.9)
    assert not breaker.allow()
    clock.advance(0.2)
    assert breaker.allow()


def test_registry_keys_are_independent():
    clock = FakeClock()
    registry = BreakerRegistry(threshold=1, cooldown_s=30.0, clock=clock)
    bad = ("docs", "text", "hash64", "index")
    good = ("docs", "text", "hash64", "int8")
    registry.record_failure(bad)
    assert not registry.allow(bad)
    assert registry.allow(good)
    assert registry.open_count() == 1
    snap = registry.snapshot()
    assert snap["docs/text/hash64/index"]["state"] == OPEN
    assert snap["docs/text/hash64/int8"]["state"] == CLOSED


def test_registry_reset_drops_state():
    registry = BreakerRegistry(threshold=1, cooldown_s=30.0)
    registry.record_failure(("t", "c", "m", "int8"))
    assert registry.open_count() == 1
    registry.reset()
    assert registry.open_count() == 0
    assert registry.allow(("t", "c", "m", "int8"))
