"""Unified observability: metrics, tracing, EXPLAIN, flight recorder.

``repro.obs`` correlates what the per-layer ``*Stats`` classes could
only count in isolation.  Those classes stay the one source of every
count: :meth:`QueryService.metrics` renders the service's own snapshots,
so there is no process-wide copy to drift from them.

* :mod:`~repro.obs.metrics` — the log-bucketed latency
  :class:`~repro.obs.metrics.Histogram` (p50/p95/p99) a service owns,
* :mod:`~repro.obs.trace` — span-based :class:`Tracer`, the one ambient
  per-query :class:`QueryScope` (trace, deadline, tag, retry budget)
  and a bounded ring of recent traces,
* :mod:`~repro.obs.export` — Prometheus-style text exposition and
  JSON-lines trace dumps,
* :mod:`~repro.obs.explain` — the ``explain_analyze=True`` per-query
  span tree,
* :mod:`~repro.obs.capture` / :mod:`~repro.obs.replay` — the flight
  recorder: JSONL workload capture with result digests, and
  deterministic paced/closed replay verifying them bit-identical,
* :mod:`~repro.obs.critical_path` — per-trace self-time attribution and
  the bounded :class:`SlowQueryLog` behind ``service.slow_queries()``,
* :mod:`~repro.obs.server` — the stdlib HTTP introspection endpoint
  (``/metrics``, ``/health``, ``/traces``, ``/slow``).

Sampling, ring size, site gating, capture rotation and the slow-log
capacity are ``QueryService`` keywords; ``REPRO_OBS_CAPTURE`` and
``REPRO_OBS_HTTP_PORT`` say where a deployment captures and listens
(see ``docs/OBSERVABILITY.md``).
"""

from importlib import import_module

from .critical_path import SlowQueryLog
from .explain import render_explain
from .export import prometheus_text, traces_jsonl
from .server import ObservabilityServer
from .trace import QueryScope, Tracer, current_trace, span

# capture/replay pull in the plan algebra, which is not importable while
# the core packages are still initializing — and ``repro.obs`` *is*
# imported that early (the engine's executor reads the query scope).  Lazy
# module-level attributes (PEP 562) break the cycle without making
# callers spell out submodules.
_LAZY = {
    "WorkloadRecorder": ".capture",
    "WorkloadReplayer": ".replay",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(target, __name__), name)


__all__ = [
    "ObservabilityServer",
    "QueryScope",
    "SlowQueryLog",
    "Tracer",
    "WorkloadRecorder",
    "WorkloadReplayer",
    "current_trace",
    "prometheus_text",
    "render_explain",
    "span",
    "traces_jsonl",
]
