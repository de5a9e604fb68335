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
* :mod:`~repro.service.semantic_cache` — exact-key result caching with
  TTL, LRU eviction and catalog-version invalidation,
* :mod:`~repro.service.qos` — the QoS primitives: deadlines, priorities,
  EWMA estimators, and the explicit ``degraded`` response contract,
* :mod:`~repro.service.service` — the :class:`QueryService` facade and
  per-client :class:`SessionHandle`,
* :mod:`~repro.service.async_front` — :class:`AsyncQueryService`, an
  asyncio submission front holding thousands of idle connections over a
  bounded dispatcher pool.
"""

from .async_front import AsyncQueryService
from .qos import QueryResponse
from .service import QueryService, SessionHandle

__all__ = [
    "AsyncQueryService",
    "QueryResponse",
    "QueryService",
    "SessionHandle",
]
