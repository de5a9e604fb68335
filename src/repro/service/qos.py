"""Tail-latency QoS primitives: deadlines, priorities, and estimators.

The serving gap this module closes opens once clients outnumber execution
slots: queue wait dominates latency and p99 collapses to a large multiple
of the single-client value.  (No frozen workload runs in that regime:
``serve_hot`` in ``benchmarks/e2e/README.md`` prices this scaffold on the
uncontended path; the 64-client shed cell is ROADMAP item 1.)  The QoS
layer keeps tails flat by making two decisions *before* work is executed,
both of which need cheap online estimates:

* **shed** — a query whose deadline is provably unmeetable (already
  expired, or the execution-time EWMA says even the cheapest path cannot
  finish in time) fails fast with
  :class:`~repro.errors.DeadlineExceededError` instead of occupying an
  execution slot it cannot use;
* **degrade** — when the caller allows it (``min_recall < 1``), a
  selection that cannot meet its deadline at full precision runs over
  int8 codes (a quarter of the bytes, the same ids) and the response is
  explicitly flagged ``degraded`` — never silently.  The code scan is not
  faster in NumPy, so once its EWMA is warm the same query is shed.

Everything here is mechanism, not policy: the classes are small,
thread-safe, and independently testable.  :class:`QueryService` and
:class:`~repro.service.async_front.AsyncQueryService` wire them together.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property

from ..obs.explain import render_explain
from ..relational.table import Table

#: Priority of a submission that did not ask for one.  Higher wins.
DEFAULT_PRIORITY = 0


class EWMA:
    """Exponentially weighted moving average with a sample counter.

    ``alpha`` is the weight of each new observation; the first
    observation seeds the average directly.  Thread-safety is the
    caller's job (the trackers below hold their own locks).
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
    """Per-mode EWMA of observed execution seconds (queue wait excluded).

    Feeds the shed/degrade decision: ``estimate(mode)`` returns the
    safety-padded expected execution time, or ``None`` until at least
    ``min_samples`` observations exist — a cold tracker never sheds, so
    the first queries of a fresh service always run and seed it.
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
        self._ewmas: dict[str, EWMA] = {}
        self._alpha = alpha
        self._lock = threading.Lock()

    def observe(self, mode: str, seconds: float) -> None:
        """Record one completed execution of ``mode`` ("full"/"degraded")."""
        with self._lock:
            ewma = self._ewmas.get(mode)
            if ewma is None:
                ewma = self._ewmas[mode] = EWMA(self._alpha)
            ewma.update(max(0.0, seconds))

    def estimate(self, mode: str) -> float | None:
        """Safety-padded expected seconds for ``mode``, if warmed up."""
        with self._lock:
            ewma = self._ewmas.get(mode)
            if ewma is None or ewma.n < self.min_samples or ewma.value is None:
                return None
            return ewma.value * self.safety

    def snapshot(self) -> dict:
        with self._lock:
            return {
                mode: {"ewma_s": e.value, "n": e.n}
                for mode, e in self._ewmas.items()
            }


@dataclass
class QoSParams:
    """Per-query quality-of-service contract.

    Attributes:
        deadline: absolute ``time.perf_counter()`` deadline, or ``None``.
        priority: larger values are scheduled (and admitted) first.
        min_recall: below ``1.0``, the caller's permission to *degrade*
            the query to an int8 code scan instead of shedding it when
            the deadline is tight.  ``None`` (or ``1.0``) forbids
            degradation: the query either runs at full precision or is
            shed.
    """

    deadline: float | None = None
    priority: int = DEFAULT_PRIORITY
    min_recall: float | None = None

    @classmethod
    def from_relative(
        cls,
        deadline_s: float | None,
        *,
        priority: int = DEFAULT_PRIORITY,
        min_recall: float | None = None,
        now: float | None = None,
    ) -> "QoSParams":
        """Build params from a deadline *relative to now* (seconds)."""
        now = time.perf_counter() if now is None else now
        deadline = None if deadline_s is None else now + float(deadline_s)
        return cls(deadline=deadline, priority=priority, min_recall=min_recall)

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (negative if passed); None if unset."""
        if self.deadline is None:
            return None
        now = time.perf_counter() if now is None else now
        return self.deadline - now


@dataclass
class QueryResponse:
    """A service result plus the QoS metadata callers must see.

    ``table`` is the materialized result.  ``degraded`` is the explicit
    flag the exactness contract requires: ``False`` means the result is
    bit-identical to serial fp32 execution; ``True`` means the query ran
    over quantized codes because its caller allowed it (``precision``
    says which codec): the exact ids, scores re-ranked in fp32 rather
    than by the serial kernel.  Degraded responses are never cached and
    never silent.
    """

    table: Table
    degraded: bool = False
    precision: str = "fp32"
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
    """Counters for the deadline/priority/degradation machinery."""

    #: Submissions that carried a deadline.
    with_deadline: int = 0
    #: Shed because the deadline had already expired (at submission or
    #: while queued in the async front / admission queue).
    shed_expired: int = 0
    #: Shed because the execution-time estimate proved the deadline
    #: unmeetable even by the cheapest allowed path.
    shed_unmeetable: int = 0
    #: Queries executed on the degraded (int8 code scan) path.
    degraded: int = 0
    #: Queries that completed before their deadline.
    deadline_met: int = 0
    #: Queries that completed after their deadline (late, not shed).
    deadline_missed: int = 0

    def snapshot(self) -> dict:
        return {
            "with_deadline": self.with_deadline,
            "shed_expired": self.shed_expired,
            "shed_unmeetable": self.shed_unmeetable,
            "degraded": self.degraded,
            "deadline_met": self.deadline_met,
            "deadline_missed": self.deadline_missed,
        }
