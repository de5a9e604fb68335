"""Span-based per-query tracing, and the one ambient per-query scope.

The service opens one :class:`QueryScope` per submission; it carries the
query's trace, deadline, tag and retry budget, and every layer below —
optimizer, coalescer, engine, physical planner — reads it (:func:`span`,
:func:`current_scope`) without any parameter threading.  It works
because the service executes queries on the submitting (caller) thread,
so the scope set at dispatch is visible to everything the query runs on
that thread.

Two kinds of span cover the coalesced execution path:

* **owned spans** (:func:`span`) — opened and closed on the thread that
  owns the trace; they nest via a per-trace stack, carry wall *and*
  thread-CPU time, and attach attributes via ``handle.set(...)``;
* **foreign spans** (:meth:`Trace.add_span`) — completed spans appended
  by *another* thread, used by the coalescer leader to attribute the
  shared scan (and each follower's demux/rescore) to every member
  query's own trace.  The trace's internal lock makes this safe.

Cost when sampled out: :func:`span` reads one thread-local and returns a
shared no-op singleton — no allocation, no locking — so always-on
instrumentation stays near-free for the (default) 99% of untraced
queries.  Sampling itself reuses the deterministic counter-hash schedule
from the fault injector: the decision for the *n*-th submission is a
pure function of ``(seed, n)``, so a run with a pinned seed traces the
same submissions regardless of thread interleaving.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..config import get_config, mix32
from ..reliability.retry import RetryBudget


class _Ambient(threading.local):
    scope: "QueryScope | None" = None


_local = _Ambient()


@dataclass
class Span:
    """One timed region of a query's execution.

    ``index`` is the span's position in the trace (pre-order for owned
    spans); ``parent`` is the index of the enclosing span, ``-1`` for the
    root.  ``start_s`` is seconds since the trace started; ``cpu_s`` is
    thread CPU time, so ``wall_s - cpu_s`` exposes blocking (queue wait,
    coalesce gather, lock contention).
    """

    index: int
    parent: int
    name: str
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "parent": self.parent,
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "attrs": self.attrs,
        }


class Trace:
    """All spans of one traced query, plus its identity and outcome."""

    __slots__ = (
        "query_id",
        "tag",
        "status",
        "error",
        "started_at",
        "spans",
        "_t0",
        "_stack",
        "_lock",
    )

    def __init__(self, query_id: str, tag: str) -> None:
        self.query_id = query_id
        self.tag = tag
        self.status = "running"
        self.error: str | None = None
        #: Wall-clock epoch seconds (for dumps); span math uses perf_counter.
        self.started_at = time.time()
        self.spans: list[Span] = []
        self._t0 = time.perf_counter()
        self._stack = [-1]
        self._lock = threading.Lock()

    def add_span(
        self, name: str, *, start: float, wall_s: float, cpu_s: float = 0.0, **attrs
    ) -> int:
        """Append a completed span from a foreign thread (coalescer leader).

        ``start`` is the :func:`time.perf_counter` reading the work began
        at, so the span lands where it ran inside this query's timeline
        however late it is appended.  It is parented at the root.
        """
        with self._lock:
            index = len(self.spans)
            parent = 0 if self.spans else -1
            self.spans.append(
                Span(
                    index,
                    parent,
                    name,
                    max(0.0, start - self._t0),
                    wall_s,
                    cpu_s,
                    dict(attrs),
                )
            )
        return index

    @property
    def wall_s(self) -> float:
        """Total traced wall time (the root span's, once closed)."""
        with self._lock:
            return self.spans[0].wall_s if self.spans else 0.0

    def find(self, name: str) -> list[Span]:
        """All spans with the given name (test/debug convenience)."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def to_dict(self) -> dict:
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
        # Absolute wall-clock anchor per span: dumps from different
        # processes share no perf_counter origin, but started_at is epoch
        # time, so started_at + start_s time-aligns them during replay
        # analysis.
        for span_dict in spans:
            span_dict["start_at"] = round(
                self.started_at + span_dict["start_s"], 6
            )
        return {
            "query_id": self.query_id,
            "tag": self.tag,
            "status": self.status,
            "error": self.error,
            "started_at": self.started_at,
            "wall_s": spans[0]["wall_s"] if spans else 0.0,
            "spans": spans,
        }


class _NullSpan:
    """Shared no-op handle returned when tracing is off / sampled out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one owned span on the ambient trace."""

    __slots__ = ("_trace", "_span", "_t0", "_c0")

    def __init__(self, trace: Trace, name: str, attrs: dict) -> None:
        self._trace = trace
        self._span = Span(0, -1, name, 0.0, attrs=attrs)

    def __enter__(self) -> "_SpanHandle":
        trace = self._trace
        span_ = self._span
        with trace._lock:
            span_.index = len(trace.spans)
            span_.parent = trace._stack[-1]
            span_.start_s = time.perf_counter() - trace._t0
            trace.spans.append(span_)
            trace._stack.append(span_.index)
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()
        return self

    def set(self, **attrs) -> "_SpanHandle":
        self._span.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.wall_s = time.perf_counter() - self._t0
        self._span.cpu_s = time.thread_time() - self._c0
        if exc is not None:
            self._span.attrs.setdefault(
                "error", f"{exc_type.__name__}: {exc}"
            )
        trace = self._trace
        with trace._lock:
            if trace._stack and trace._stack[-1] == self._span.index:
                trace._stack.pop()
        return False


def span(name: str, **attrs):
    """A timed span on the calling thread's ambient trace.

    Returns a context manager; with no trace in scope it is a shared no-op
    singleton, so instrumentation sites cost one thread-local read when
    sampled out.
    """
    scope = _local.scope
    trace = None if scope is None else scope.trace
    if trace is None:
        return _NULL_SPAN
    return _SpanHandle(trace, name, attrs)


def current_scope() -> "QueryScope | None":
    """The ambient query scope of the calling thread, if any."""
    return _local.scope


def current_trace() -> Trace | None:
    """The ambient trace of the calling thread, if any."""
    scope = _local.scope
    return None if scope is None else scope.trace


class QueryScope:
    """One query's ambient state on the thread that runs it: its trace,
    deadline (``perf_counter`` clock), attribution tag and retry budget.

    Entering makes the scope ambient for this thread and, with a trace,
    opens the trace's root ``query`` span; leaving restores the outer
    scope, exception or not.  A scope masks any outer one: ``trace=None``
    (the common case) makes every :func:`span` below a no-op, and an
    unset deadline is no deadline.  On exit the trace's ``status``
    resolves to ``"ok"`` or ``"failed"`` (with the error recorded) unless
    the body already set something more specific.

    Engine worker threads do not inherit the scope and need not: an
    engine run reads it once, on the dispatching thread.
    """

    __slots__ = ("trace", "deadline", "tag", "_budget", "_outer", "_root")

    def __init__(
        self,
        trace: Trace | None = None,
        *,
        deadline: float | None = None,
        tag: str | None = None,
    ) -> None:
        self.trace = trace
        self.deadline = deadline
        self.tag = tag
        self._budget: RetryBudget | None = None

    def retry_budget(self) -> RetryBudget:
        """The per-query budget every engine run and the service-level
        retry share — made on first use, so a cached answer makes none."""
        if self._budget is None:
            self._budget = RetryBudget()
        return self._budget

    def __enter__(self) -> "QueryScope":
        self._outer = _local.scope
        _local.scope = self
        if self.trace is not None:
            self._root = _SpanHandle(self.trace, "query", {}).__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            trace = self.trace
            if trace is not None:
                self._root.__exit__(exc_type, exc, tb)
                if exc is not None:
                    trace.status = "failed"
                    trace.error = f"{exc_type.__name__}: {exc}"
                elif trace.status == "running":
                    trace.status = "ok"
        finally:
            _local.scope = self._outer
        return False


class Tracer:
    """Sampling decisions plus the bounded ring of completed traces.

    Sampling is deterministic: submission *n* is traced iff
    ``mix32(seed ^ n) < rate * 2**32`` — replay-identical for a pinned
    seed, uniformly spread for any rate.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 0.01,
        ring_size: int = 256,
        seed: int | None = None,
    ) -> None:
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.ring: deque[Trace] = deque(maxlen=max(1, int(ring_size)))
        self.seed = (
            get_config().stream_seed("obs.sampler") if seed is None else int(seed)
        )
        self._threshold = int(self.sample_rate * 0x100000000)
        self._n = 0
        self._lock = threading.Lock()
        #: Submissions that were considered / actually traced.
        self.considered = 0
        self.sampled = 0

    def maybe_trace(
        self, query_id: str, tag: str, *, force: bool = False
    ) -> Trace | None:
        """A new :class:`Trace` if this submission should be traced.

        ``force`` (the ``explain_analyze`` path) bypasses sampling.
        """
        if not force:
            if self._threshold <= 0:
                return None
            with self._lock:
                n = self._n
                self._n += 1
                self.considered += 1
                if mix32(self.seed ^ n) >= self._threshold:
                    return None
                self.sampled += 1
        return Trace(query_id, tag)

    def record(self, trace: Trace) -> None:
        """Retire a completed trace into the ring (oldest evicted)."""
        self.ring.append(trace)

    def recent(self) -> list[Trace]:
        """Retained traces, oldest first."""
        return list(self.ring)
