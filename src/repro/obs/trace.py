"""Span-based per-query tracing with ambient context propagation.

This generalizes the ``deadline_scope`` pattern from
:mod:`repro.reliability.runtime`: the service opens a :func:`query_scope`
around execution, and every layer below — plan cache, coalescer, engine,
physical planner — calls :func:`span` without any parameter threading.
It works for the same reason the deadline scope does: the service
executes queries on the submitting (caller) thread, so the scope set at
dispatch is visible to everything the query runs on that thread.

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
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..config import get_config, mix32

_local = threading.local()


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
        "_sites",
    )

    def __init__(
        self, query_id: str, tag: str, *, sites: frozenset | None = None
    ) -> None:
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
        self._sites = sites

    def allows(self, name: str) -> bool:
        """Site gating: record ``site.detail`` spans iff ``site`` is enabled."""
        if self._sites is None:
            return True
        return name.split(".", 1)[0] in self._sites

    def add_span(
        self, name: str, *, wall_s: float, cpu_s: float = 0.0, **attrs
    ) -> int | None:
        """Append a completed span from a foreign thread (coalescer leader).

        The span is parented at the root and stamped as ending "now" on
        the trace's clock, so explain trees show where the shared work
        landed inside this query's timeline.
        """
        if not self.allows(name):
            return None
        end_s = time.perf_counter() - self._t0
        with self._lock:
            index = len(self.spans)
            parent = 0 if self.spans else -1
            self.spans.append(
                Span(
                    index,
                    parent,
                    name,
                    max(0.0, end_s - wall_s),
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

    Returns a context manager; with no trace in scope (or the span's site
    gated off) it is a shared no-op singleton, so instrumentation sites
    cost one thread-local read when sampled out.
    """
    trace = getattr(_local, "trace", None)
    if trace is None or not trace.allows(name):
        return _NULL_SPAN
    return _SpanHandle(trace, name, attrs)


def current_trace() -> Trace | None:
    """The ambient trace of the calling thread, if any."""
    return getattr(_local, "trace", None)


@contextmanager
def query_scope(trace: Trace | None):
    """Make ``trace`` ambient for this thread and open its root span.

    ``None`` is a valid (and the common) scope: it masks any outer trace
    and makes every :func:`span` call below a no-op.  On exit the trace's
    ``status`` is resolved to ``"ok"`` or ``"failed"`` (with the error
    recorded) unless the body already set something more specific.
    """
    prev = getattr(_local, "trace", None)
    _local.trace = trace
    if trace is None:
        try:
            yield None
        finally:
            _local.trace = prev
        return
    try:
        with _SpanHandle(trace, "query", {}):
            yield trace
        if trace.status == "running":
            trace.status = "ok"
    except BaseException as exc:
        trace.status = "failed"
        trace.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _local.trace = prev


def parse_sites(raw) -> frozenset | None:
    """Normalize a sites spec (comma string or iterable) to a frozenset.

    Empty (the default) means "every site" and maps to ``None``.
    """
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
    else:
        parts = [str(part).strip() for part in raw]
    sites = frozenset(part for part in parts if part)
    return sites or None


class Tracer:
    """Sampling decisions plus the bounded ring of completed traces.

    Sampling is deterministic: submission *n* is traced iff
    ``mix32(seed ^ n) < rate * 2**32`` — replay-identical for a pinned
    seed, uniformly spread for any rate.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_rate: float = 0.01,
        ring_size: int = 256,
        sites=None,
        seed: int | None = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.ring: deque[Trace] = deque(maxlen=max(1, int(ring_size)))
        self.sites = parse_sites(sites)
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

        ``force`` (the ``explain_analyze`` path) bypasses sampling but
        still honours site gating.
        """
        if not force:
            if not self.enabled or self._threshold <= 0:
                return None
            with self._lock:
                n = self._n
                self._n += 1
                self.considered += 1
                if mix32(self.seed ^ n) >= self._threshold:
                    return None
                self.sampled += 1
        return Trace(query_id, tag, sites=self.sites)

    def record(self, trace: Trace) -> None:
        """Retire a completed trace into the ring (oldest evicted)."""
        self.ring.append(trace)

    def recent(self) -> list[Trace]:
        """Retained traces, oldest first."""
        return list(self.ring)
