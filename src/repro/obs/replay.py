"""Workload replay: the flight recorder's read side.

A :class:`WorkloadReplayer` takes a captured JSONL workload (a path or
pre-loaded records) and re-issues it against a fresh
:class:`~repro.service.service.QueryService`:

* **paced** mode reproduces the capture's inter-arrival gaps (optionally
  compressed by ``speed``), so queueing behaviour and tail latency are
  comparable run-to-run;
* **closed** mode ignores arrival times and has ``clients`` workers pull
  queries as fast as the service retires them — a throughput probe.

For every replayed query whose capture carried a digest, the replayer
digests the fresh result and compares bit-for-bit.  The run report pairs
the capture's latency/QPS numbers with the replay's, which is the
before/after comparison a perf-affecting change should publish.

Replay is *exact-path only* by default: captured QoS terms (deadline,
recall floor) are not re-applied, because a deadline raced against a
different machine's clock sheds different queries and destroys digest
comparability.  Pass ``apply_qos=True`` to rehearse shedding behaviour
instead of verifying results.
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path

from ..errors import ReproError
from .capture import load_workload, plan_from_dict, result_digest


class ReplayError(ReproError):
    """The workload cannot be replayed as requested."""


def latency_percentiles(samples) -> dict:
    """p50/p95/p99 (linear-interpolated) plus sample count of ``samples``.

    Returns an empty dict for an empty input.
    """
    values = sorted(float(s) for s in samples)
    if not values:
        return {}

    def pct(p: float) -> float:
        if len(values) == 1:
            return values[0]
        rank = (len(values) - 1) * (p / 100.0)
        lo, hi = math.floor(rank), math.ceil(rank)
        return values[lo] + (values[hi] - values[lo]) * (rank - lo)

    return {"p50": pct(50), "p95": pct(95), "p99": pct(99), "n": len(values)}


def _capture_summary(records: list[dict]) -> dict:
    """Latency/QPS summary of the *capture* side, from the log alone."""
    completed = [
        r for r in records if r["outcome"] == "completed" and r["latency_s"]
    ]
    latencies = [r["latency_s"] for r in completed]
    span_s = max((r["arrival_s"] for r in records), default=0.0)
    return {
        "queries": len(records),
        "completed": len(completed),
        "latency": latency_percentiles(latencies) if latencies else None,
        "qps": (len(records) / span_s) if span_s > 0 else None,
    }


class WorkloadReplayer:
    """Deterministically re-issue a captured workload against a service."""

    def __init__(
        self,
        workload: str | Path | list[dict],
        *,
        mode: str = "paced",
        speed: float = 1.0,
        clients: int = 16,
        apply_qos: bool = False,
    ) -> None:
        if mode not in ("paced", "closed"):
            raise ReplayError(f"unknown replay mode {mode!r}")
        if speed <= 0:
            raise ReplayError("replay speed must be positive")
        records = (
            workload
            if isinstance(workload, list)
            else load_workload(workload)
        )
        # Stable order: by capture arrival, ties by query id, so closed
        # mode is deterministic too.
        self.records = sorted(
            records, key=lambda r: (r["arrival_s"], str(r["query_id"]))
        )
        self.mode = mode
        self.speed = float(speed)
        self.clients = max(1, int(clients))
        self.apply_qos = bool(apply_qos)

    def run(self, service) -> dict:
        """Replay against ``service``; returns the comparison report.

        The report's ``ok`` is true iff no digest mismatched and nothing
        errored that completed in the capture.
        """
        replayable = [r for r in self.records if r["plan"] is not None]
        skipped_unsupported = len(self.records) - len(replayable)
        plans = [plan_from_dict(r["plan"]) for r in replayable]

        results: list[dict | None] = [None] * len(replayable)
        next_index = [0]
        index_lock = threading.Lock()
        t0 = time.perf_counter()

        def issue(i: int) -> None:
            record = replayable[i]
            if self.mode == "paced":
                target = record["arrival_s"] / self.speed
                delay = target - (time.perf_counter() - t0)
                if delay > 0:
                    time.sleep(delay)
            start = time.perf_counter()
            outcome: dict = {"query_id": record["query_id"]}
            try:
                if self.apply_qos:
                    response = service.submit_qos(
                        plans[i],
                        deadline_s=record["deadline_s"],
                        priority=record["priority"] or 0,
                        min_recall=(
                            1.0
                            if record["min_recall"] is None
                            else record["min_recall"]
                        ),
                        tag=record["tag"],
                    )
                else:
                    # Exact path: no deadline, recall floor 1.0, so every
                    # replayed result is digest-comparable.
                    response = service.submit_qos(
                        plans[i], min_recall=1.0, tag=record["tag"]
                    )
            except Exception as exc:  # noqa: BLE001 - tallied per query
                outcome["error"] = f"{type(exc).__name__}: {exc}"
                outcome["latency_s"] = time.perf_counter() - start
            else:
                outcome["latency_s"] = time.perf_counter() - start
                outcome["degraded"] = response.degraded
                if not response.degraded:
                    outcome["digest"] = result_digest(response.table)
            results[i] = outcome

        def worker() -> None:
            while True:
                with index_lock:
                    i = next_index[0]
                    if i >= len(replayable):
                        return
                    next_index[0] = i + 1
                issue(i)

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(min(self.clients, max(1, len(replayable))))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

        matched = mismatched = unverifiable = errors = 0
        mismatches: list[dict] = []
        latencies: list[float] = []
        for record, outcome in zip(replayable, results):
            if outcome is None:
                continue
            if "latency_s" in outcome:
                latencies.append(outcome["latency_s"])
            if "error" in outcome:
                errors += 1
                if record["outcome"] == "completed" and len(mismatches) < 10:
                    mismatches.append(
                        {
                            "query_id": record["query_id"],
                            "kind": "error",
                            "captured": record["outcome"],
                            "replayed": outcome["error"],
                        }
                    )
                continue
            if record["digest"] is None or outcome.get("digest") is None:
                unverifiable += 1
                continue
            if record["digest"] == outcome["digest"]:
                matched += 1
            else:
                mismatched += 1
                if len(mismatches) < 10:
                    mismatches.append(
                        {
                            "query_id": record["query_id"],
                            "kind": "digest",
                            "captured": record["digest"],
                            "replayed": outcome["digest"],
                        }
                    )

        hard_errors = sum(
            1
            for record, outcome in zip(replayable, results)
            if outcome is not None
            and "error" in outcome
            and record["outcome"] == "completed"
        )
        return {
            "mode": self.mode,
            "speed": self.speed,
            "clients": self.clients,
            "apply_qos": self.apply_qos,
            "capture": _capture_summary(self.records),
            "replay": {
                "queries": len(replayable),
                "errors": errors,
                "latency": latency_percentiles(latencies) if latencies else None,
                "qps": (len(replayable) / wall) if wall > 0 else None,
                "wall_s": wall,
            },
            "digests": {
                "verified": matched + mismatched,
                "matched": matched,
                "mismatched": mismatched,
                "unverifiable": unverifiable,
                "skipped_unsupported": skipped_unsupported,
            },
            "mismatches": mismatches,
            "ok": mismatched == 0 and hard_errors == 0,
        }
