"""Exporters: Prometheus-style text exposition and JSON-lines traces.

Both formats are plain strings so they can go to a file, a socket, or a
test assertion without any transport dependency:

* :func:`prometheus_text` renders ``(name, labels, value)`` rows — what
  :meth:`QueryService.metrics` flattens from the service's own snapshots
  with :func:`snapshot_rows` — in the text exposition format
  (``# HELP``/``# TYPE`` headers from :data:`METRIC_HELP`,
  ``name{labels} value`` samples; a :class:`~repro.obs.metrics.Histogram`
  value exposes ``_count``/``_sum`` plus ``quantile``-labelled samples,
  summary-style);
* :func:`traces_jsonl` renders traces one JSON object per line — the
  shape trace viewers and ad hoc ``jq`` pipelines both want.
"""

from __future__ import annotations

import json
import math
import re

from .metrics import Histogram

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: Families that count events; every other non-histogram family is a gauge.
COUNTERS = frozenset({"repro_queries_total", "repro_breaker_transitions_total"})

#: ``# HELP`` text by family; a gauge family without an entry is helped by
#: the snapshot path it was read from.
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
    "repro_breaker_trips": "Times this access path's breaker tripped open.",
    "repro_breaker_closes": "Times this access path's breaker closed again.",
    "repro_breaker_transitions_total": (
        "Breaker state transitions summed over access paths, by target state."
    ),
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


def snapshot_rows(rows: list, paths: dict, name: str, path: str, snap: dict) -> None:
    """Append every numeric leaf of ``snap`` to ``rows`` as a gauge row.

    Nested keys join with ``_`` under ``name``, sanitized to the
    Prometheus name charset (``stats_snapshot()["engine"]["runs"]``
    becomes ``repro_engine_runs``); booleans read 0/1, strings and
    ``None`` are skipped.  ``paths`` maps each name to the path it was
    read from, its HELP text when :data:`METRIC_HELP` has none.
    """
    for key, value in snap.items():
        leaf = f"{name}_{_NAME_OK.sub('_', str(key))}"
        where = f'{path}["{key}"]'
        if isinstance(value, dict):
            snapshot_rows(rows, paths, leaf, where, value)
        elif isinstance(value, (int, float)):
            rows.append((leaf, {}, float(value)))
            paths.setdefault(leaf, where)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _help_escape(value: str) -> str:
    # HELP text escapes backslash and newline only (no quotes), per the
    # exposition format.
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_text(rows, *, help=None) -> str:
    """Text exposition of ``(name, labels, value)`` rows (stable order).

    A family is one name: its rows render sorted by labels under one
    ``# HELP`` / ``# TYPE`` pair, families sorted by name.  ``help`` maps
    a family to its HELP text (the name itself when absent).  A family
    named in :data:`COUNTERS` types as ``counter``; one whose value is a
    :class:`Histogram` as ``summary``, since it exports quantiles; every
    other as ``gauge``.
    """
    help = help or {}
    lines: list[str] = []
    family = None
    for name, labels, value in sorted(
        rows, key=lambda row: (row[0], sorted(row[1].items()))
    ):
        if name != family:
            family = name
            if isinstance(value, Histogram):
                kind = "summary"
            else:
                kind = "counter" if name in COUNTERS else "gauge"
            lines.append(f"# HELP {name} {_help_escape(help.get(name, name))}")
            lines.append(f"# TYPE {name} {kind}")
        if isinstance(value, Histogram):
            snap = value.snapshot()
            lines.append(f"{name}_count{_label_text(labels)} {snap['count']}")
            lines.append(
                f"{name}_sum{_label_text(labels)} {_format_value(snap['sum'])}"
            )
            for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                lines.append(
                    f"{name}{_label_text(labels, {'quantile': q_label})} "
                    f"{_format_value(snap[q_key])}"
                )
        else:
            lines.append(f"{name}{_label_text(labels)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _ordered_trace_dict(trace) -> dict:
    """``to_dict`` with spans in deterministic ``(start_s, index)`` order.

    Shard workers report spans asynchronously, so recording order is not
    reproducible across runs; sorting here keeps exported JSONL stable.
    Parent references use each span's ``index`` field (not its list
    position), so reordering does not corrupt the tree — see
    :mod:`repro.obs.critical_path`.
    """
    data = dict(trace.to_dict() if not isinstance(trace, dict) else trace)
    spans = list(data.get("spans", ()))
    data["spans"] = sorted(
        spans,
        key=lambda s: (s.get("start_s") or 0.0, int(s.get("index", 0))),
    )
    return data


def traces_jsonl(traces) -> str:
    """One JSON object per line for each trace (oldest first)."""
    lines = [
        json.dumps(_ordered_trace_dict(trace), sort_keys=True, default=str)
        for trace in traces
    ]
    return "\n".join(lines) + ("\n" if lines else "")
