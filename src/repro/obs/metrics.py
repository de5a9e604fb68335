"""The one live metric kind: a log-bucketed latency histogram.

Every other number a service exposes is already counted by the
per-instance ``*Stats`` class that owns it; :meth:`QueryService.metrics`
renders those snapshots directly (see :mod:`repro.obs.export`), so there
is no second copy to keep in step.  What no snapshot holds is a
distribution, so a service owns one :class:`Histogram` of its query
latencies: base-2 buckets with interpolated p50/p95/p99, sized for
latencies from a microsecond to years in 48 integer buckets, thread-safe
behind its own small lock and never sampled out.
"""

from __future__ import annotations

import math
import threading

#: Bucket 0 lower bound for histograms: 1 microsecond (values in seconds).
HIST_MIN_VALUE = 1e-6
#: Bucket count: base-2 buckets from 1us cover up to ~2.2e8s (~7 years).
HIST_BUCKETS = 48


class Histogram:
    """Log-bucketed (base-2) histogram with interpolated percentiles.

    Bucket ``i`` covers ``[HIST_MIN_VALUE * 2**i, HIST_MIN_VALUE * 2**(i+1))``;
    values below ``HIST_MIN_VALUE`` land in bucket 0, values beyond the
    last bound in the final bucket.  ``observe`` is O(1): a ``frexp``
    plus one locked increment.  Percentiles interpolate linearly inside the
    bucket where the requested rank falls, clamped to the exact observed
    min/max so small samples stay tight.
    """

    __slots__ = ("_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * HIST_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _bucket(self, value: float) -> int:
        if value < HIST_MIN_VALUE:
            return 0
        # frexp(r) = (m, e) with r = m * 2**e, m in [0.5, 1): for r >= 1
        # floor(log2(r)) == e - 1, i.e. the base-2 bucket index.
        index = math.frexp(value / HIST_MIN_VALUE)[1] - 1
        return min(index, HIST_BUCKETS - 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value or value < 0:  # NaN / negative: not a duration
            return
        # +inf clamps to the overflow bucket explicitly (frexp(inf) would
        # otherwise hand back a nonsense exponent).
        index = HIST_BUCKETS - 1 if math.isinf(value) else self._bucket(value)
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
                    lo = HIST_MIN_VALUE * (2.0**i) if i else 0.0
                    hi = HIST_MIN_VALUE * (2.0 ** (i + 1))
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
