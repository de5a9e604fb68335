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
* :mod:`~repro.service.result_cache` — exact-key result caching with
  TTL, LRU eviction and catalog-version invalidation, keyed by one walk
  of the request's plan (``fingerprint``),
* :mod:`~repro.service.qos` — the default priority, the execution-time
  EWMA that sheds unmeetable deadlines, and the annotated response,
* :mod:`~repro.service.service` — the :class:`QueryService` facade:
  clients call ``submit`` / ``submit_qos`` with a per-query ``tag``;
  deadlines, priorities and the QoS counters live on its one submission
  path, and a miss is optimized as ``QueryBuilder.execute`` does,
* :mod:`~repro.service.async_front` — :class:`AsyncQueryService`, an
  asyncio submission front holding thousands of idle connections over a
  bounded dispatcher pool.
"""

from .async_front import AsyncQueryService
from .qos import QueryResponse
from .service import QueryService

__all__ = [
    "AsyncQueryService",
    "QueryResponse",
    "QueryService",
]
