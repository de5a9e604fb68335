"""Thin adapter publishing the existing ``*Stats`` classes as metrics.

None of the fifteen ``*Stats`` dataclasses change API: they keep their
counters and ``snapshot()`` methods, and this module flattens those
snapshots into registry gauges on demand (every :meth:`QueryService.metrics`
call).  Pull-based publication matches how Prometheus scrapes anyway,
and it means zero extra work on the query hot path — the only *live*
metrics are the handful the service increments itself and the breaker
transition counters.

Naming: nested snapshot keys join with ``_`` under a ``repro_`` prefix
(``stats_snapshot()["engine"]["steals"]`` becomes ``repro_engine_steals``),
sanitized to the Prometheus name charset.  Non-numeric leaves are
skipped, except breaker states, which publish as a per-path
``repro_breaker_open`` 0/1 gauge plus trip/close counts.
"""

from __future__ import annotations

import re

from .metrics import MetricsRegistry, registry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(part: str) -> str:
    return _NAME_OK.sub("_", str(part))


#: ``# HELP`` text for the metrics with live (non-snapshot) semantics.
METRIC_HELP = {
    "repro_queries_total": "Queries retired by the service, by outcome.",
    "repro_query_latency_seconds": "End-to-end query latency in seconds.",
    "repro_obs_traces_retained": "Completed traces currently in the ring.",
    "repro_obs_traces_sampled": "Submissions that were sampled into a trace.",
    "repro_obs_submissions_considered": (
        "Submissions that reached the sampling decision."
    ),
    "repro_capture_records": "Workload records appended by the recorder.",
    "repro_capture_unsupported_plans": (
        "Captured queries whose plan the wire format cannot express."
    ),
    "repro_capture_rotations": "Capture file rotations performed.",
    "repro_capture_bytes": "Bytes in the current capture file generation.",
    "repro_slow_queries_retained": "Entries currently in the slow-query log.",
    "repro_breakers_open_total": "Circuit breakers currently not closed.",
    "repro_breaker_open": "Whether this access path's breaker is open (0/1).",
    "repro_shard_procs": "Shard worker processes in the pool.",
    "repro_shard_alive": "Shard worker processes currently alive.",
    "repro_shard_scans": "Coalesced scans fanned out across the pool.",
    "repro_shard_declined": (
        "Scans the fan-out cost model kept in-process (table too small)."
    ),
    "repro_shard_publishes": "Column-store publishes into shared memory.",
    "repro_shard_segments": "Shared-memory segments currently published.",
    "repro_shard_rows_scanned": "Rows scanned by shard workers, summed.",
    "repro_shard_worker_deaths": "Shard worker processes found dead.",
    "repro_shard_stalls": "Shard workers respawned for heartbeat stalls.",
    "repro_shard_respawns": "Shard worker respawns performed.",
    "repro_shard_reenqueued": "Shard tasks re-dispatched after a respawn.",
    "repro_shard_errors": "Pool scans abandoned to the in-process path.",
}


def describe_metrics(reg: MetricsRegistry | None = None) -> None:
    """Register ``# HELP`` strings for the well-known metric names."""
    reg = registry() if reg is None else reg
    for name, text in METRIC_HELP.items():
        reg.describe(name, text)


def publish_nested(
    reg: MetricsRegistry, prefix: str, mapping: dict, **labels
) -> int:
    """Publish every numeric leaf of ``mapping`` as ``prefix_path`` gauges.

    Returns the number of gauges written.  Booleans publish as 0/1;
    strings and ``None`` are skipped (identity goes in labels, not
    values).
    """
    written = 0
    for key, value in mapping.items():
        name = f"{prefix}_{_sanitize(key)}"
        if isinstance(value, dict):
            written += publish_nested(reg, name, value, **labels)
        elif isinstance(value, bool):
            reg.gauge(name, **labels).set(1.0 if value else 0.0)
            written += 1
        elif isinstance(value, (int, float)):
            reg.gauge(name, **labels).set(float(value))
            written += 1
    return written


def publish_breakers(reg: MetricsRegistry, breaker_snapshot: dict) -> None:
    """Per-access-path breaker state as labelled gauges."""
    for path, snap in breaker_snapshot.items():
        open_ = 0.0 if snap.get("state") == "closed" else 1.0
        reg.gauge("repro_breaker_open", path=path).set(open_)
        reg.gauge("repro_breaker_trips", path=path).set(
            float(snap.get("trips", 0))
        )
        reg.gauge("repro_breaker_closes", path=path).set(
            float(snap.get("closes", 0))
        )


def publish_service(service, reg: MetricsRegistry | None = None) -> None:
    """Sync one service's ``*Stats`` snapshots into the registry.

    Covers the merged :meth:`QueryService.stats_snapshot` tree (service,
    qos, admission, plan cache, result cache, coalescer, engine), the
    reliability health snapshot (retries, watchdog, faults), per-path
    breaker states, and the tracer's own sampling counters.
    """
    reg = registry() if reg is None else reg
    publish_nested(reg, "repro", service.stats_snapshot())
    health = service.health()
    publish_nested(reg, "repro_retry", health.retries)
    publish_nested(reg, "repro_watchdog", health.watchdog)
    publish_nested(reg, "repro_fault", health.faults)
    reg.gauge("repro_breakers_open_total").set(float(health.open_breakers))
    publish_breakers(reg, health.breakers)
    tracer = getattr(service, "tracer", None)
    if tracer is not None:
        reg.gauge("repro_obs_traces_retained").set(float(len(tracer.ring)))
        reg.gauge("repro_obs_traces_sampled").set(float(tracer.sampled))
        reg.gauge("repro_obs_submissions_considered").set(
            float(tracer.considered)
        )
    recorder = getattr(service, "recorder", None)
    if recorder is not None:
        publish_nested(reg, "repro_capture", recorder.stats_snapshot())
    slow_log = getattr(service, "slow_log", None)
    if slow_log is not None:
        reg.gauge("repro_slow_queries_retained").set(float(len(slow_log)))
    describe_metrics(reg)
