"""Process-wide metrics registry: counters, gauges, and log histograms.

The repo's telemetry grew as fifteen disconnected ``*Stats`` dataclasses;
this module gives them one place to land.  Three metric kinds cover what
a serving stack needs:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (adapter-published snapshots);
* :class:`Histogram` — log-bucketed (base-2) value distribution with
  interpolated p50/p95/p99, sized for latencies from a microsecond to
  hours in ~50 integer buckets.

Design constraints, in order: **lock-cheap** (each metric carries its own
small lock; the registry lock is only taken on get-or-create, and callers
cache hot metric handles), **thread-safe** (a service increments from
every client thread), and **always-on** (metrics never sample out — only
traces do).

The process-wide instance comes from :func:`registry`; tests isolate
themselves with :func:`reset_registry`.  Existing ``*Stats`` classes keep
their APIs and are published as gauges by :mod:`repro.obs.adapter`.
"""

from __future__ import annotations

import math
import threading

#: Bucket 0 lower bound for histograms: 1 microsecond (values in seconds).
HIST_MIN_VALUE = 1e-6
#: Bucket count: base-2 buckets from 1us cover up to ~2.2e8s (~7 years).
HIST_BUCKETS = 48


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic event counter (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-written value (thread-safe; adapter snapshots land here)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Log-bucketed (base-2) histogram with interpolated percentiles.

    Bucket ``i`` covers ``[min_value * 2**i, min_value * 2**(i+1))``;
    values below ``min_value`` land in bucket 0, values beyond the last
    bound in the final bucket.  ``observe`` is O(1): a ``frexp`` plus one
    locked increment.  Percentiles interpolate linearly inside the
    bucket where the requested rank falls, clamped to the exact observed
    min/max so small samples stay tight.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "min_value",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: dict,
        *,
        min_value: float = HIST_MIN_VALUE,
        n_buckets: int = HIST_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.min_value = float(min_value)
        self._counts = [0] * max(1, int(n_buckets))
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _bucket(self, value: float) -> int:
        if value < self.min_value:
            return 0
        # frexp(r) = (m, e) with r = m * 2**e, m in [0.5, 1): for r >= 1
        # floor(log2(r)) == e - 1, i.e. the base-2 bucket index.
        index = math.frexp(value / self.min_value)[1] - 1
        return min(index, len(self._counts) - 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value or value < 0:  # NaN / negative: not a duration
            return
        # +inf clamps to the overflow bucket explicitly (frexp(inf) would
        # otherwise hand back a nonsense exponent).
        index = (
            len(self._counts) - 1 if math.isinf(value) else self._bucket(value)
        )
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> float | None:
        """Interpolated ``p``-th percentile (``p`` in [0, 100])."""
        with self._lock:
            if self._count == 0:
                return None
            rank = (min(100.0, max(0.0, p)) / 100.0) * self._count
            seen = 0
            for i, n in enumerate(self._counts):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo = self.min_value * (2.0**i) if i else 0.0
                    hi = self.min_value * (2.0 ** (i + 1))
                    frac = (rank - seen) / n
                    value = lo + (hi - lo) * frac
                    return min(self._max, max(self._min, value))
                seen += n
            return self._max

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create store of named (and optionally labelled) metrics.

    One metric identity is ``(name, sorted(labels))``; asking twice
    returns the same object, so call sites can either cache the handle
    (hot paths) or re-ask every time (cold paths).  Asking for an
    existing name with a different metric kind raises — one name, one
    kind, as Prometheus requires.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()

    def describe(self, name: str, text: str) -> None:
        """Attach a ``# HELP`` string to a metric name.

        Idempotent; the last description wins.  Metrics without one fall
        back to their class docstring's first line in the exposition.
        """
        with self._lock:
            self._help[name] = " ".join(str(text).split())

    def help_for(self, name: str) -> str | None:
        """The registered help string for ``name``, if any."""
        with self._lock:
            return self._help.get(name)

    def _get_or_create(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for (other_name, _), other in self._metrics.items():
                    if other_name == name and other.kind != cls.kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{other.kind}, not {cls.kind}"
                        )
                metric = self._metrics[key] = cls(name, dict(labels))
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def iter_metrics(self):
        """Snapshot of metrics sorted by (name, labels) — stable output."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [metric for _, metric in items]

    def snapshot(self) -> dict:
        """``name{labels} -> value`` dict (histograms expand to a dict)."""
        out = {}
        for metric in self.iter_metrics():
            label_txt = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
            key = f"{metric.name}{{{label_txt}}}" if label_txt else metric.name
            out[key] = (
                metric.snapshot()
                if isinstance(metric, Histogram)
                else metric.value
            )
        return out


#: Process-wide registry; every layer publishes into the same one.
_registry: MetricsRegistry | None = None
_registry_lock = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (created lazily)."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def reset_registry() -> None:
    """Drop every metric (tests; config changes)."""
    global _registry
    with _registry_lock:
        _registry = None
