"""Tail-latency QoS primitives: deadlines, priorities, and estimators.

The serving gap this module closes opens once clients outnumber execution
slots: queue wait dominates latency and p99 collapses to a large multiple
of the single-client value.  (No frozen workload runs in that regime:
``serve_hot`` in ``benchmarks/e2e/README.md`` prices this scaffold on the
uncontended path; the 64-client shed cell is ROADMAP item 1.)  The QoS
layer keeps tails flat by one decision made *before* work is executed:
a query whose deadline is provably unmeetable — already expired, or the
execution-time EWMA says it cannot finish in time — is **shed**, failing
fast with :class:`~repro.errors.DeadlineExceededError` instead of
occupying an execution slot it cannot use.  There is no second, cheaper
execution mode: every answer the service returns is the exact one.

Everything here is mechanism, not policy: the classes are small,
thread-safe, and independently testable.  :class:`QueryService` and
:class:`~repro.service.async_front.AsyncQueryService` wire them together.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from functools import cached_property

from ..obs.explain import render_explain
from ..relational.table import Table

#: Priority of a submission that did not ask for one.  Higher wins.
DEFAULT_PRIORITY = 0


class EWMA:
    """Exponentially weighted moving average with a sample counter.

    ``alpha`` is the weight of each new observation; the first
    observation seeds the average directly.  Thread-safety is the
    caller's job (the tracker below holds its own lock).
    """

    __slots__ = ("alpha", "value", "n")

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: float | None = None
        self.n = 0

    def update(self, sample: float) -> float:
        sample = float(sample)
        self.value = (
            sample
            if self.value is None
            else self.value + self.alpha * (sample - self.value)
        )
        self.n += 1
        return self.value


class ExecTimeTracker:
    """EWMA of observed execution seconds (queue wait excluded).

    Feeds the shed decision: :meth:`estimate` returns the safety-padded
    expected execution time, or ``None`` until at least ``min_samples``
    observations exist — a cold tracker never sheds, so the first queries
    of a fresh service always run and seed it.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.2,
        safety: float = 1.5,
        min_samples: int = 5,
    ) -> None:
        self.safety = max(1.0, float(safety))
        self.min_samples = max(1, int(min_samples))
        self._ewma = EWMA(alpha)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one completed execution."""
        with self._lock:
            self._ewma.update(max(0.0, seconds))

    def estimate(self) -> float | None:
        """Safety-padded expected seconds, once warmed up."""
        with self._lock:
            if self._ewma.n < self.min_samples:
                return None
            return self._ewma.value * self.safety

    def snapshot(self) -> dict:
        with self._lock:
            return {"ewma_s": self._ewma.value, "n": self._ewma.n}


@dataclass
class QoSParams:
    """Per-query quality-of-service contract.

    Attributes:
        deadline: absolute ``time.perf_counter()`` deadline, or ``None``.
        priority: larger values are scheduled (and admitted) first.
    """

    deadline: float | None = None
    priority: int = DEFAULT_PRIORITY

    @classmethod
    def from_relative(
        cls,
        deadline_s: float | None,
        *,
        priority: int = DEFAULT_PRIORITY,
        now: float | None = None,
    ) -> "QoSParams":
        """Build params from a deadline *relative to now* (seconds)."""
        now = time.perf_counter() if now is None else now
        deadline = None if deadline_s is None else now + float(deadline_s)
        return cls(deadline=deadline, priority=priority)

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (negative if passed); None if unset."""
        if self.deadline is None:
            return None
        now = time.perf_counter() if now is None else now
        return self.deadline - now


@dataclass
class QueryResponse:
    """A service result plus the QoS metadata callers must see.

    ``table`` is the materialized result, bit-identical to serial
    execution of the same query.
    """

    #: Always ``False``: no path degrades an answer.  A class constant,
    #: not a field, kept because ``benchmarks/e2e/workloads.py`` reads it.
    degraded = False

    table: Table
    latency_s: float = 0.0
    #: ``None`` when the query carried no deadline; otherwise whether the
    #: result was produced before it (a late result is still returned —
    #: shedding only happens *before* execution starts).
    deadline_met: bool | None = None
    cache_hit: bool = False
    #: Service-assigned id (``q<seq>``); set on every submission.
    query_id: str | None = None
    #: The query's :class:`~repro.obs.trace.Trace` when it was sampled
    #: (or forced via ``explain_analyze=True``); ``None`` otherwise.
    trace: object | None = None

    @cached_property
    def explain(self) -> str | None:
        """EXPLAIN ANALYZE tree of a traced query (``explain_analyze=True``
        forces the trace), rendered from ``trace`` when first read — the
        query itself never pays for the string."""
        return None if self.trace is None else render_explain(self.trace)


@dataclass
class QoSStats:
    """Counters for the deadline/priority machinery."""

    #: Submissions that carried a deadline.
    with_deadline: int = 0
    #: Shed because the deadline had already expired (at submission or
    #: while queued in the async front / admission queue).
    shed_expired: int = 0
    #: Shed because the execution-time estimate proved the deadline
    #: unmeetable.
    shed_unmeetable: int = 0
    #: Queries that completed before their deadline.
    deadline_met: int = 0
    #: Queries that completed after their deadline (late, not shed).
    deadline_missed: int = 0

    def snapshot(self) -> dict:
        return asdict(self)
