"""Per-access-path circuit breakers feeding the physical planner.

A breaker guards one *access path* — keyed by
``(table, column, model, precision)`` for quantized scan paths and
``(table, column, model, "index")`` for index probes.  The planner asks
:meth:`BreakerRegistry.allow` before committing to a path; a tripped
breaker makes the path unavailable, and the planner falls back down its
chain (pq → int8 → fp32 scan; index → exact tensor scan).  Because the
fallback target is the *exact* path, breaker fallbacks never weaken the
exactness contract — they trade speed for availability, not accuracy.

State machine (classic three-state breaker):

* ``closed`` — healthy; failures increment a consecutive-failure count,
  and reaching ``threshold`` trips the breaker to ``open``;
* ``open`` — the path is excluded from planning (its cost is effectively
  infinite) until ``cooldown_s`` elapses;
* ``half_open`` — after the cooldown, exactly one trial request is let
  through: success closes the breaker, failure re-opens it (and restarts
  the cooldown).
"""

from __future__ import annotations

import threading
import time

from ..obs.metrics import registry as _metrics

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def _count_transition(to: str) -> None:
    """Publish one breaker state transition into the metrics registry.

    Transitions are rare (bounded by faults and cooldowns), so the
    get-or-create lookup is fine here; hot paths never reach this.
    """
    _metrics().counter("repro_breaker_transitions_total", to=to).inc()


#: Consecutive access-path failures that trip a breaker open.
THRESHOLD = 3
#: Seconds an open breaker waits before admitting one half-open trial.
COOLDOWN_S = 30.0


class CircuitBreaker:
    """One access path's failure state (thread-safe)."""

    def __init__(
        self,
        threshold: int = THRESHOLD,
        cooldown_s: float = COOLDOWN_S,
        *,
        clock=time.monotonic,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = max(0.0, float(cooldown_s))
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._trial_inflight = False
        self.trips = 0
        #: Recoveries: transitions back to ``closed`` from open/half-open.
        self.closes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request use this path right now?

        In ``open`` state, the first caller after the cooldown becomes
        the half-open trial; everyone else keeps getting ``False`` until
        the trial resolves.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self._clock()
            if self._state == OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._trial_inflight = True
                _count_transition(HALF_OPEN)
                return True
            # half_open: only the single in-flight trial is allowed.
            if self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            recovered = self._state != CLOSED
            self._failures = 0
            self._state = CLOSED
            self._trial_inflight = False
            if recovered:
                self.closes += 1
                _count_transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN or self._failures >= self.threshold:
                if self._state != OPEN:
                    self.trips += 1
                    _count_transition(OPEN)
                self._state = OPEN
                self._opened_at = self._clock()
                self._failures = 0
                self._trial_inflight = False

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "trips": self.trips,
                "closes": self.closes,
            }


class BreakerRegistry:
    """All breakers of one process, keyed by access-path tuple."""

    def __init__(
        self,
        threshold: int = THRESHOLD,
        cooldown_s: float = COOLDOWN_S,
        *,
        clock=time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._breakers: dict[tuple, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    self.threshold, self.cooldown_s, clock=self._clock
                )
            return breaker

    def allow(self, key: tuple) -> bool:
        return self.get(key).allow()

    def record_success(self, key: tuple) -> None:
        self.get(key).record_success()

    def record_failure(self, key: tuple) -> None:
        self.get(key).record_failure()

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._breakers.items())
        return {
            "/".join(str(part) for part in key): breaker.snapshot()
            for key, breaker in items
        }

    def open_count(self) -> int:
        with self._lock:
            items = list(self._breakers.values())
        return sum(1 for b in items if b.state != CLOSED)

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()


#: Process-wide registry; the planner and tests share it.
_registry: BreakerRegistry | None = None
_registry_lock = threading.Lock()


def breakers() -> BreakerRegistry:
    """The process-wide breaker registry (created lazily)."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = BreakerRegistry()
        return _registry


def reset_breakers() -> None:
    """Drop all breaker state (tests; config changes)."""
    global _registry
    with _registry_lock:
        _registry = None
