"""Concurrent query service: the serving layer over the query engine.

``repro.service`` turns the single-query :class:`repro.query.Engine` into
a multi-client service:

* :mod:`~repro.service.admission` — bounded in-flight queries with
  backpressure statistics, priority-ordered admission, and deadline
  shedding of queued waiters,
* :mod:`~repro.service.coalescer` — cross-query shared-scan batching:
  E-selections that queue behind a busy (table, column, model) scan
  source fuse into one stacked blocked scan over the shared-scan core,
  demuxed per query, bit-identical to serial execution; batches form by
  backpressure (group commit), never by waiting on a timer,
* :mod:`~repro.service.plan_cache` — repeated query shapes skip the
  optimizer via parameterized plan-fingerprint templates,
* :mod:`~repro.service.semantic_cache` — exact and (opt-in) cosine
  near-duplicate result caching with TTL, LRU eviction, catalog-version
  invalidation, and (opt-in) TinyLFU cost-aware admission,
* :mod:`~repro.service.qos` — the QoS primitives: deadlines, priorities,
  EWMA estimators, and the explicit ``degraded`` response contract,
* :mod:`~repro.service.service` — the :class:`QueryService` facade and
  per-client :class:`SessionHandle`,
* :mod:`~repro.service.async_front` — :class:`AsyncQueryService`, an
  asyncio submission front holding thousands of idle connections over a
  bounded dispatcher pool.
"""

from .admission import AdmissionController, AdmissionStats
from .async_front import AsyncFrontStats, AsyncQueryService
from .coalescer import (
    CoalescerStats,
    CoalescingScheduler,
    SharedScanRequest,
    materialize_selection,
    unwrap_shared_scan,
)
from .plan_cache import PlanCache, PlanCacheStats, fingerprint, parameterize, substitute
from .qos import (
    DEFAULT_PRIORITY,
    EWMA,
    ExecTimeTracker,
    FrequencySketch,
    QoSParams,
    QoSStats,
    QueryResponse,
)
from .semantic_cache import ResultCacheStats, SemanticResultCache, table_versions
from .service import QueryService, ServiceStats, SessionHandle

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AsyncFrontStats",
    "AsyncQueryService",
    "CoalescerStats",
    "CoalescingScheduler",
    "DEFAULT_PRIORITY",
    "EWMA",
    "ExecTimeTracker",
    "FrequencySketch",
    "PlanCache",
    "PlanCacheStats",
    "QoSParams",
    "QoSStats",
    "QueryResponse",
    "QueryService",
    "ResultCacheStats",
    "SemanticResultCache",
    "ServiceStats",
    "SessionHandle",
    "SharedScanRequest",
    "fingerprint",
    "materialize_selection",
    "parameterize",
    "substitute",
    "table_versions",
    "unwrap_shared_scan",
]
