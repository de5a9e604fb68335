"""Unified observability: metrics, tracing, EXPLAIN, flight recorder.

``repro.obs`` correlates what the sixteen per-layer ``*Stats`` classes
could only count in isolation:

* :mod:`~repro.obs.metrics` — process-wide :class:`MetricsRegistry`
  (counters, gauges, log-bucketed histograms with p50/p95/p99),
* :mod:`~repro.obs.trace` — span-based :class:`Tracer` with ambient
  :func:`query_scope` propagation (the ``deadline_scope`` pattern,
  generalized) and a bounded ring of recent traces,
* :mod:`~repro.obs.export` — Prometheus-style text exposition and
  JSON-lines trace dumps,
* :mod:`~repro.obs.explain` — the ``explain_analyze=True`` per-query
  span tree,
* :mod:`~repro.obs.adapter` — publishes the existing ``*Stats``
  snapshots into the registry without changing their APIs,
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
from .metrics import Counter, registry, reset_registry
from .server import ObservabilityServer
from .trace import Tracer, current_trace, query_scope, span

# capture/replay pull in the plan algebra, which is not importable while
# the core packages are still initializing — and ``repro.obs`` *is*
# imported that early (the breaker registry publishes metrics).  Lazy
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
    "Counter",
    "ObservabilityServer",
    "SlowQueryLog",
    "Tracer",
    "WorkloadRecorder",
    "WorkloadReplayer",
    "current_trace",
    "prometheus_text",
    "query_scope",
    "registry",
    "render_explain",
    "reset_registry",
    "span",
    "traces_jsonl",
]
