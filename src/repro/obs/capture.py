"""Workload capture: the flight recorder's write side.

A :class:`WorkloadRecorder` hangs off the query service and appends one
JSONL record per submission — the logical plan (in a replayable wire
form), the QoS terms, the arrival offset, the outcome, the latency, and
a stable SHA-256 digest of the result table.  A captured log is a
*replayable workload*: :mod:`repro.obs.replay` re-issues it against a
fresh service and checks the digests bit-for-bit, which is the
capture→replay→diff loop every perf-affecting change should close.

Design constraints, in order:

* **near-zero cost disabled** — the default.  With no capture path the
  service holds no recorder and each submission pays one ``None`` check;
* **cheap enabled** — one ``json.dumps`` plus one buffered write per
  query, under a lock only for the write itself.  The digest is a single
  pass over the result columns' bytes;
* **bounded on disk** — the file rotates once it exceeds ``max_bytes``
  (``path`` -> ``path.1`` -> ...), keeping at most ``keep`` rotated
  generations;
* **bit-exact round trips** — query vectors serialize as float lists
  (float32 -> float64 widening is exact, and Python's JSON repr of a
  float64 round-trips exactly), so a replayed query is *the same* query.

Plans that the wire format cannot express (similarity joins, arbitrary
filter expressions) are still recorded — outcome, latency, digest — with
``plan: null``; replay skips them and reports how many it skipped.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

import numpy as np

from ..algebra.logical import (
    EmbedNode,
    ESelectNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
)
from ..core.conditions import ThresholdCondition, TopKCondition
from ..errors import DeadlineExceededError, ReproError, ServiceOverloadError

#: Wire-format version stamped into every record.
CAPTURE_VERSION = 1


class UnsupportedPlanError(ReproError):
    """The plan contains a node the capture wire format cannot express."""


# ----------------------------------------------------------------------
# Plan wire format
# ----------------------------------------------------------------------
def _encode_query(query) -> dict | str:
    if isinstance(query, np.ndarray):
        return {
            "__ndarray__": [float(v) for v in np.ravel(query)],
            "dtype": str(query.dtype),
            "shape": list(query.shape),
        }
    if isinstance(query, str):
        return query
    raise UnsupportedPlanError(
        f"cannot serialize query value of type {type(query).__name__}"
    )


def _decode_query(encoded):
    if isinstance(encoded, dict) and "__ndarray__" in encoded:
        return np.asarray(
            encoded["__ndarray__"], dtype=np.dtype(encoded["dtype"])
        ).reshape(tuple(encoded["shape"]))
    return encoded


def _encode_condition(condition) -> dict:
    if isinstance(condition, ThresholdCondition):
        return {"kind": "threshold", "threshold": float(condition.threshold)}
    if isinstance(condition, TopKCondition):
        return {
            "kind": "topk",
            "k": int(condition.k),
            "min_similarity": (
                None
                if condition.min_similarity is None
                else float(condition.min_similarity)
            ),
        }
    raise UnsupportedPlanError(
        f"cannot serialize condition {type(condition).__name__}"
    )


def _decode_condition(encoded: dict):
    if encoded["kind"] == "threshold":
        return ThresholdCondition(encoded["threshold"])
    return TopKCondition(encoded["k"], min_similarity=encoded["min_similarity"])


def plan_to_dict(node: LogicalNode) -> dict:
    """Serialize a logical plan to the capture wire format.

    Covers the serving shapes (``Scan``, ``ESelect``, ``Embed``,
    ``Project``, ``Limit``); raises :class:`UnsupportedPlanError` for
    anything else — callers record such queries with ``plan: null``.
    """
    if isinstance(node, ScanNode):
        return {"op": "scan", "table": node.table_name}
    if isinstance(node, ESelectNode):
        return {
            "op": "eselect",
            "child": plan_to_dict(node.child),
            "column": node.column,
            "query": _encode_query(node.query),
            "model": node.model_name,
            "condition": _encode_condition(node.condition),
            "score_column": node.score_column,
        }
    if isinstance(node, EmbedNode):
        return {
            "op": "embed",
            "child": plan_to_dict(node.child),
            "column": node.column,
            "model": node.model_name,
            "output": node.output_column,
        }
    if isinstance(node, ProjectNode):
        return {
            "op": "project",
            "child": plan_to_dict(node.child),
            "names": list(node.names),
        }
    if isinstance(node, LimitNode):
        return {"op": "limit", "child": plan_to_dict(node.child), "n": node.n}
    raise UnsupportedPlanError(
        f"plan node {type(node).__name__} is not capturable"
    )


def plan_from_dict(encoded: dict) -> LogicalNode:
    """Rebuild a logical plan from its wire form (inverse of
    :func:`plan_to_dict`)."""
    op = encoded["op"]
    if op == "scan":
        return ScanNode(encoded["table"])
    if op not in ("eselect", "embed", "project", "limit"):
        raise UnsupportedPlanError(f"unknown plan op {op!r}")
    child = plan_from_dict(encoded["child"])
    if op == "eselect":
        return ESelectNode(
            child,
            encoded["column"],
            _decode_query(encoded["query"]),
            encoded["model"],
            _decode_condition(encoded["condition"]),
            encoded["score_column"],
        )
    if op == "embed":
        return EmbedNode(
            child, encoded["column"], encoded["model"], encoded["output"]
        )
    if op == "project":
        return ProjectNode(child, tuple(encoded["names"]))
    if op == "limit":
        return LimitNode(child, encoded["n"])
    raise UnsupportedPlanError(f"unknown plan op {op!r}")


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
def result_digest(table) -> str:
    """Stable SHA-256 digest of a result table (schema + column bytes).

    Two tables digest equal iff they have the same column names, types,
    row order, and bit-identical values — exactly the service's
    exactness contract, so capture and replay can compare results across
    processes without shipping the tables themselves.
    """
    h = hashlib.sha256()
    for field in table.schema:
        column = table.columns[field.name]
        arr = np.ascontiguousarray(column.data)
        h.update(field.name.encode("utf-8"))
        h.update(str(field.dtype).encode("utf-8"))
        if arr.dtype.kind == "O":
            # Object columns (decoded strings, dates): canonical JSON.
            h.update(b"O")
            h.update(
                json.dumps(arr.tolist(), default=str).encode("utf-8")
            )
        else:
            h.update(str(arr.dtype).encode("utf-8"))
            h.update(str(arr.shape).encode("utf-8"))
            h.update(arr.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
def _classify_outcome(error: BaseException | None) -> str:
    if error is None:
        return "completed"
    if isinstance(error, DeadlineExceededError):
        return "shed"
    if isinstance(error, ServiceOverloadError):
        return "rejected"
    return "failed"


class WorkloadRecorder:
    """Append-only JSONL workload capture with size-bounded rotation.

    The recorder's clock starts at construction; each record's
    ``arrival_s`` is the submission's offset on that clock, which is
    what paced replay uses to reproduce the original inter-arrival gaps.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int = 64 << 20,
        keep: int = 1,
    ) -> None:
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = self.path.stat().st_size
        self._closed = False
        self.records = 0
        self.unsupported_plans = 0
        self.rotations = 0

    def offset(self) -> float:
        """Seconds since the recorder started (the arrival clock)."""
        return time.perf_counter() - self._t0

    def record(
        self,
        *,
        plan,
        tag: str,
        query_id: str,
        arrival_s: float,
        deadline_s: float | None = None,
        priority: int = 0,
        min_recall: float | None = None,
        response=None,
        error: BaseException | None = None,
    ) -> dict | None:
        """Append one submission's record; returns it (``None`` if closed).

        ``response`` is the :class:`~repro.service.qos.QueryResponse` on
        success; ``error`` the raised exception otherwise.  Degraded
        responses are recorded without a digest — an approximate result
        is not a replay baseline.
        """
        if self._closed:
            return None
        try:
            plan_dict = plan_to_dict(plan)
        except UnsupportedPlanError:
            plan_dict = None
            self.unsupported_plans += 1
        outcome = _classify_outcome(error)
        record = {
            "v": CAPTURE_VERSION,
            "query_id": query_id,
            "tag": tag,
            "arrival_s": round(float(arrival_s), 9),
            "deadline_s": deadline_s,
            "priority": priority,
            "min_recall": min_recall,
            "plan": plan_dict,
            "outcome": outcome,
            "error": None if error is None else f"{type(error).__name__}: {error}",
            "latency_s": None,
            "degraded": False,
            "cache_hit": False,
            "precision": None,
            "digest": None,
        }
        if response is not None:
            record["latency_s"] = round(float(response.latency_s), 9)
            record["degraded"] = bool(response.degraded)
            record["cache_hit"] = bool(response.cache_hit)
            record["precision"] = response.precision
            if not response.degraded:
                record["digest"] = result_digest(response.table)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._closed:
                return None
            self._file.write(line)
            self._file.flush()
            self._size += len(line.encode("utf-8"))
            self.records += 1
            if self._size > self.max_bytes:
                self._rotate_locked()
        return record

    def _rotate_locked(self) -> None:
        """Rotate ``path`` -> ``path.1`` -> ... (call with the lock held)."""
        self._file.close()
        # Drop the oldest generation, then shift the rest up by one.
        oldest = self.path.with_name(f"{self.path.name}.{self.keep}")
        oldest.unlink(missing_ok=True)
        for i in range(self.keep - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{i}")
            if src.exists():
                src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
        if self.keep > 0:
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        else:
            self.path.unlink(missing_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def stats_snapshot(self) -> dict:
        with self._lock:
            return {
                "records": self.records,
                "unsupported_plans": self.unsupported_plans,
                "rotations": self.rotations,
                "bytes": self._size,
            }


def load_workload(path: str | Path) -> list[dict]:
    """Parse a captured JSONL workload file into record dicts."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
