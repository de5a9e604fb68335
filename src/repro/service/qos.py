"""Tail-latency QoS primitives: the default priority, the execution-time
estimator, and the annotated response.

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
from dataclasses import dataclass
from functools import cached_property

from ..obs.explain import render_explain
from ..relational.table import Table

#: Priority of a submission that did not ask for one.  Higher wins.
DEFAULT_PRIORITY = 0

#: Weight of each new observation in the execution-time EWMA; the first
#: observation seeds the average directly.
ALPHA = 0.2
#: Multiplier on the estimate before it is compared to the time left.
SAFETY = 1.5
#: Observations before an estimate is trusted: a cold tracker never sheds.
MIN_SAMPLES = 5


class ExecTimeTracker:
    """EWMA of observed execution seconds (queue wait excluded).

    Feeds the shed decision: :meth:`estimate` returns the ``SAFETY``-padded
    expected execution time, or ``None`` until at least ``MIN_SAMPLES``
    observations exist — a cold tracker never sheds, so the first queries
    of a fresh service always run and seed it.
    """

    def __init__(self) -> None:
        self._value: float | None = None
        self._n = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one completed execution."""
        sample = max(0.0, float(seconds))
        with self._lock:
            self._value = (
                sample
                if self._value is None
                else self._value + ALPHA * (sample - self._value)
            )
            self._n += 1

    def estimate(self) -> float | None:
        """Safety-padded expected seconds, once warmed up."""
        with self._lock:
            if self._n < MIN_SAMPLES:
                return None
            return self._value * SAFETY

    def snapshot(self) -> dict:
        with self._lock:
            return {"ewma_s": self._value, "n": self._n}


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
