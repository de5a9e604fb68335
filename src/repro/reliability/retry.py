"""Typed retries with exponential backoff and decorrelated jitter.

The retry layer exists because morsels (and kernel calls, and store
builds) are *pure*: re-executing one after a transient failure produces
the bit-identical bytes the first attempt would have.  That makes retry
the cheapest reliability mechanism in the system — no checkpoints, no
idempotency tokens, just run it again.

Three guards keep retries from becoming a liability:

* **typing** — only :class:`~repro.errors.TransientError` subclasses are
  retried; permanent faults and planner bugs propagate on the first
  attempt;
* **budgets** — a per-query :class:`RetryBudget` caps the *total* number
  of re-executions a single query may consume across all its morsels, so
  a fault storm cannot multiply one query's work unboundedly;
* **deadlines** — a bound policy refuses to sleep past the ambient QoS
  deadline: a retry that cannot finish in time surfaces the original
  transient error immediately instead of burning the deadline asleep.

Backoff is AWS-style *decorrelated jitter*: each sleep is drawn
uniformly from ``[base, prev * 3]`` and clamped to ``cap``, which spreads
concurrent retriers apart (avoiding synchronized retry herds) while
keeping the expected backoff exponential.  The jitter stream is seeded,
so a chaos run's sleep schedule is reproducible.
"""

from __future__ import annotations

import random
import threading
import time

from ..config import get_config
from ..errors import TransientError

#: Attempts (1 initial + retries) a transiently-failing unit of work gets.
MAX_ATTEMPTS = 3
#: Base backoff before the first retry; later sleeps use decorrelated
#: jitter from this base.
BASE_S = 0.001
#: Upper bound on any single backoff sleep.
CAP_S = 0.050


class RetryStats:
    """Thread-safe counters shared by every bound policy of one engine."""

    def __init__(self) -> None:
        self.attempts = 0
        self.retries = 0
        self.giveups = 0
        self.deadline_truncations = 0
        self.budget_exhausted = 0
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "attempts": self.attempts,
                "retries": self.retries,
                "giveups": self.giveups,
                "deadline_truncations": self.deadline_truncations,
                "budget_exhausted": self.budget_exhausted,
            }


class RetryBudget:
    """A per-query cap on total re-executions (shared across morsels)."""

    __slots__ = ("_left", "_lock")

    def __init__(self, n: int = 16) -> None:
        self._left = max(0, int(n))
        self._lock = threading.Lock()

    def take(self) -> bool:
        """Consume one retry token; ``False`` when the budget is spent."""
        with self._lock:
            if self._left <= 0:
                return False
            self._left -= 1
            return True

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._left


class RetryPolicy:
    """Engine-wide retry parameters (bind per query before use).

    ``clock`` and ``sleep`` are injection points so the unit tests drive
    time with a fake clock — the suite never sleeps for real.
    """

    def __init__(
        self,
        max_attempts: int,
        base_s: float,
        cap_s: float,
        *,
        seed: int = 0,
        clock=time.monotonic,
        sleep=time.sleep,
        stats: RetryStats | None = None,
    ) -> None:
        self.max_attempts = max(1, int(max_attempts))
        self.base_s = max(0.0, float(base_s))
        self.cap_s = max(self.base_s, float(cap_s))
        self.seed = int(seed)
        self._clock = clock
        self._sleep = sleep
        self.stats = stats if stats is not None else RetryStats()

    @classmethod
    def from_config(cls) -> "RetryPolicy":
        """The engine's policy: the module constants, the jitter stream
        seeded from the config's root seed."""
        return cls(
            MAX_ATTEMPTS, BASE_S, CAP_S, seed=get_config().stream_seed("retry-jitter")
        )

    def bind(
        self,
        *,
        deadline: float | None = None,
        budget: RetryBudget | None = None,
    ) -> "BoundRetry":
        """A per-query view: same knobs, plus deadline and budget."""
        return BoundRetry(self, deadline=deadline, budget=budget)


class BoundRetry:
    """One query's retry executor (thread-safe; workers share it)."""

    def __init__(
        self,
        policy: RetryPolicy,
        *,
        deadline: float | None = None,
        budget: RetryBudget | None = None,
    ) -> None:
        self.policy = policy
        self.deadline = deadline
        self.budget = budget
        self.local_retries = 0
        self._rng: random.Random | None = None  # made by the first backoff
        self._lock = threading.Lock()

    def _backoff(self, prev_s: float) -> float:
        """Decorrelated jitter: uniform over [base, prev*3], capped."""
        policy = self.policy
        with self._lock:
            if self._rng is None:
                self._rng = random.Random(policy.seed)
            hi = max(policy.base_s, min(policy.cap_s, prev_s * 3.0))
            return min(policy.cap_s, self._rng.uniform(policy.base_s, hi))

    def call(self, fn):
        """Run ``fn()``; re-run on transient failure within the guards."""
        policy = self.policy
        stats = policy.stats
        prev_s = policy.base_s
        for attempt in range(1, policy.max_attempts + 1):
            with stats._lock:
                stats.attempts += 1
            try:
                return fn()
            except TransientError:
                if attempt >= policy.max_attempts:
                    with stats._lock:
                        stats.giveups += 1
                    raise
                if self.budget is not None and not self.budget.take():
                    with stats._lock:
                        stats.budget_exhausted += 1
                        stats.giveups += 1
                    raise
                backoff_s = self._backoff(prev_s)
                prev_s = backoff_s
                if (
                    self.deadline is not None
                    and policy._clock() + backoff_s > self.deadline
                ):
                    with stats._lock:
                        stats.deadline_truncations += 1
                        stats.giveups += 1
                    raise
                with stats._lock:
                    stats.retries += 1
                with self._lock:
                    self.local_retries += 1
                if backoff_s > 0.0:
                    policy._sleep(backoff_s)
        raise AssertionError("unreachable")  # pragma: no cover
