"""Admission control: bounded in-flight queries with backpressure stats.

The service's first defence under heavy traffic is refusing to start more
work than the machine can progress: at most ``max_inflight`` queries
execute concurrently, and a submission that cannot get a slot within its
timeout is rejected with :class:`~repro.errors.ServiceOverloadError`
rather than queued unboundedly — callers see backpressure instead of
silent latency collapse.

The QoS layer adds two per-submission properties:

* **priority** — freed slots go to the highest-priority waiter, not the
  longest-waiting one (FIFO within a priority level), so a tight-deadline
  singleton is never stuck behind a backlog of batch work;
* **deadline** — a waiter whose deadline passes while queued is shed with
  :class:`~repro.errors.DeadlineExceededError` instead of being admitted
  to do work nobody can use anymore.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import asdict, dataclass, field

from ..errors import DeadlineExceededError, ServiceError, ServiceOverloadError


@dataclass
class AdmissionStats:
    """Counters describing admission behaviour (read under the lock)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    #: Waiters shed because their deadline passed while queued.
    deadline_shed: int = 0
    #: Highest number of concurrently admitted queries observed.
    peak_inflight: int = 0
    #: Total seconds submissions spent waiting for a slot (admitted only).
    queue_wait_seconds: float = 0.0

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass
class AdmissionController:
    """Bounded-concurrency gate with priority, deadlines, and accounting.

    Implemented on a condition variable rather than a bare semaphore so
    admissions can record queue-wait time and peak concurrency under the
    same lock that guards the counter — and so freed slots can be handed
    to the *highest-priority* waiter (a semaphore wakes an arbitrary
    one).  Waiters park in a heap ordered by (priority desc, arrival
    order asc); every release notifies all waiters and each checks
    whether it is now first in line.
    """

    max_inflight: int = 64
    timeout_s: float = 30.0
    stats: AdmissionStats = field(default_factory=AdmissionStats)

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        self._inflight = 0
        self._cond = threading.Condition()
        #: Heap of ``[-priority, seq, alive]`` waiter entries; ``seq`` is
        #: unique so comparison never reaches the ``alive`` flag.
        self._waiters: list[list] = []
        self._seq = 0

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the admission lock.

        ``AdmissionStats`` documents "read under the lock"; this is the
        method reporting paths must use — ``controller.stats.snapshot()``
        from another thread races with in-flight admissions.
        """
        with self._cond:
            snap = self.stats.snapshot()
            snap["inflight"] = self._inflight
            snap["waiting"] = sum(1 for w in self._waiters if w[2])
            return snap

    def _prune(self) -> None:
        """Drop abandoned (timed-out / shed) entries from the heap top."""
        while self._waiters and not self._waiters[0][2]:
            heapq.heappop(self._waiters)

    def _admit(self, start: float) -> None:
        self._inflight += 1
        self.stats.admitted += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight, self._inflight)
        self.stats.queue_wait_seconds += time.perf_counter() - start

    def acquire(
        self,
        *,
        timeout_s: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
    ) -> bool:
        """Wait for an execution slot; raise on backpressure or deadline.

        Returns whether the slot came only after queueing behind others —
        what a caller waited through may have changed what it will do.

        Args:
            timeout_s: backpressure bound — how long to wait for a slot
                before rejecting with ``ServiceOverloadError`` (defaults
                to the controller's ``timeout_s``).
            priority: larger values are admitted first among waiters.
            deadline: absolute ``time.perf_counter()`` deadline; if it
                passes while queued the waiter is shed with
                ``DeadlineExceededError`` (a deadline already expired on
                entry sheds immediately).
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        start = time.perf_counter()
        give_up = start + timeout
        with self._cond:
            self.stats.submitted += 1
            if deadline is not None and start >= deadline:
                self.stats.deadline_shed += 1
                raise DeadlineExceededError(
                    "deadline already expired at admission"
                )
            self._prune()
            if self._inflight < self.max_inflight and not self._waiters:
                self._admit(start)
                return False
            self._seq += 1
            entry = [-priority, self._seq, True]
            heapq.heappush(self._waiters, entry)
            while True:
                self._prune()
                if (
                    self._inflight < self.max_inflight
                    and self._waiters
                    and self._waiters[0] is entry
                ):
                    heapq.heappop(self._waiters)
                    self._admit(start)
                    self._cond.notify_all()  # let the next waiter re-check
                    return True
                now = time.perf_counter()
                limit = give_up if deadline is None else min(give_up, deadline)
                if now >= limit:
                    entry[2] = False
                    if deadline is not None and now >= deadline:
                        self.stats.deadline_shed += 1
                        raise DeadlineExceededError(
                            f"deadline passed after {now - start:.3g}s "
                            "queued for admission"
                        )
                    self.stats.rejected += 1
                    raise ServiceOverloadError(
                        f"no execution slot within {timeout:.3g}s "
                        f"({self._inflight}/{self.max_inflight} in flight)"
                    )
                self._cond.wait(limit - now)

    def release(self) -> None:
        """Return a slot (called exactly once per successful acquire)."""
        with self._cond:
            if self._inflight <= 0:
                raise ServiceError("release() without a matching acquire()")
            self._inflight -= 1
            self.stats.completed += 1
            self._cond.notify_all()

    def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Block until no queries are in flight (the drain primitive).

        Returns ``True`` when idle, ``False`` on timeout.  Used by
        :meth:`QueryService.shutdown` to drain gracefully: the service
        stops admitting first, then waits here for in-flight work.
        """
        deadline = (
            None if timeout_s is None else time.perf_counter() + timeout_s
        )
        with self._cond:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True
