"""Asyncio submission front: thousands of idle clients, bounded execution.

:class:`QueryService` executes on its callers' threads, so holding ten
thousand connected-but-mostly-idle clients would cost ten thousand OS
threads.  :class:`AsyncQueryService` decouples *connections* from
*execution*: any number of coroutines ``await submit(...)`` at the cost
of a heap entry each, while a small pool of dispatcher threads (``workers``,
defaulting to the admission bound) drains the queue into the blocking
service.

The queue is deadline- and priority-aware:

* dispatch order is highest priority first, FIFO within a level (the
  same discipline the admission controller applies to its waiters);
* an entry whose deadline expires while still queued is shed with
  :class:`~repro.errors.DeadlineExceededError` without ever touching the
  service — the front's analogue of admission-queue shedding;
* the remaining QoS terms (residual deadline, priority, recall floor)
  are forwarded to :meth:`QueryService.submit_qos`, so the service's
  shed/degrade machinery sees the time actually left, not the client's
  original budget.

Only a request that has something to execute is queued.  ``submit``
first probes the service's result cache on the event loop itself
(:meth:`QueryService.probe`: one plan walk, one payload digest, one dict
lookup under the cache's own short lock — never the admission condition or
the singleflight lock, so the loop cannot block behind an execution); a
cached answer is completed right there, without a future, a heap entry or
a thread hand-off.  A miss is queued with what the probe computed, so the
dispatcher does not key it again.

Queued results come back as :class:`~repro.service.qos.QueryResponse`,
resolved onto the submitting coroutine's event loop via
``loop.call_soon_threadsafe`` — the only thread-to-loop handoff asyncio
sanctions.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
import time
from dataclasses import dataclass

from ..errors import DeadlineExceededError, ServiceError
from .qos import DEFAULT_PRIORITY, QueryResponse
from .service import QueryService


@dataclass
class AsyncFrontStats:
    """Counters for the async front's queue (read under its lock)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Entries shed because their deadline expired while queued here.
    shed_expired: int = 0
    #: Entries rejected because the front closed without draining.
    rejected_on_close: int = 0
    #: Highest queue depth observed.
    queued_peak: int = 0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed_expired": self.shed_expired,
            "rejected_on_close": self.rejected_on_close,
            "queued_peak": self.queued_peak,
        }


@dataclass(slots=True)
class _Pending:
    """One submission's QoS terms; queued ones add what the loop's probe
    keyed and the future to resolve."""

    query: object
    priority: int
    deadline: float | None
    min_recall: float | None
    tag: str
    timeout_s: float | None
    explain_analyze: bool
    keyed: tuple | None = None
    future: asyncio.Future | None = None
    loop: asyncio.AbstractEventLoop | None = None


def _resolve(pending: _Pending, result=None, error: BaseException | None = None):
    """Hand a worker-thread outcome back to the submitting event loop."""

    def _set() -> None:
        if pending.future.cancelled():
            return
        if error is not None:
            pending.future.set_exception(error)
        else:
            pending.future.set_result(result)

    try:
        pending.loop.call_soon_threadsafe(_set)
    except RuntimeError:
        pass  # the submitting loop already shut down; nobody is waiting


class AsyncQueryService:
    """Async submission front over a (blocking) :class:`QueryService`.

    Usage::

        async with AsyncQueryService(service) as front:
            response = await front.submit(query, deadline_s=0.1, priority=5)

    The front does not own the service: closing the front drains or
    rejects *queued* submissions but leaves the service running (call
    :meth:`QueryService.shutdown` separately).

    Args:
        service: the blocking service to dispatch into.
        workers: dispatcher thread count — the front's concurrency
            toward the service.  Defaults to the service's admission
            bound (more workers than slots would only queue inside
            admission instead).
    """

    def __init__(self, service: QueryService, *, workers: int | None = None) -> None:
        if workers is None:
            workers = service.admission.max_inflight
        self.service = service
        self.workers = max(1, int(workers))
        self.stats = AsyncFrontStats()
        self._heap: list[list] = []
        self._seq = 0
        self._busy = 0
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncQueryService":
        """Spawn the dispatcher threads (idempotent)."""
        with self._cond:
            if self._closed:
                raise ServiceError("async front is closed")
            if self._threads:
                return self
            self._threads = [
                threading.Thread(
                    target=self._worker, name=f"qos-front-{i}", daemon=True
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop the front: drain queued work, or reject it.

        With ``drain=True`` waits (off-loop, so the event loop stays
        responsive) until the queue is empty and every dispatcher is
        idle; with ``drain=False`` every still-queued submission fails
        with :class:`~repro.errors.ServiceError`.  In-flight dispatches
        finish either way — accepted work is never abandoned mid-query.
        """
        with self._cond:
            self._closed = True
            if not drain:
                while self._heap:
                    entry = heapq.heappop(self._heap)
                    pending = entry[2]
                    self.stats.rejected_on_close += 1
                    _resolve(
                        pending,
                        error=ServiceError("async front closed before dispatch"),
                    )
            self._cond.notify_all()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join)

    def _join(self) -> None:
        with self._cond:
            while self._heap or self._busy:
                self._cond.wait()
        for thread in self._threads:
            thread.join()

    async def __aenter__(self) -> "AsyncQueryService":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission (coroutine side)
    # ------------------------------------------------------------------
    async def submit(
        self,
        query,
        *,
        deadline_s: float | None = None,
        priority: int = DEFAULT_PRIORITY,
        min_recall: float | None = None,
        tag: str = "async/anon",
        timeout_s: float | None = None,
        explain_analyze: bool = False,
    ) -> QueryResponse:
        """Answer a cached query at once; queue any other and await its
        :class:`QueryResponse`.

        The deadline clock starts *now* — time spent queued in the front
        counts against it, and only the residual budget is forwarded to
        the service at dispatch.  ``explain_analyze=True`` force-traces
        the query; ``response.explain`` renders the span tree when read.
        """
        pending = _Pending(
            query,
            priority,
            None if deadline_s is None else time.perf_counter() + float(deadline_s),
            min_recall,
            tag,
            timeout_s,
            explain_analyze,
        )
        with self._cond:
            if self._closed:
                raise ServiceError("async front is closed")
            if not self._threads:
                raise ServiceError(
                    "async front not started (use `async with` or .start())"
                )
            self.stats.submitted += 1
        try:
            pending.keyed, _, cached = self.service.probe(query)
        except Exception:
            cached = None  # the dispatcher's submit fails it, counted
        if cached is not None:
            return self._serve(pending, cached)
        pending.loop = asyncio.get_running_loop()
        pending.future = pending.loop.create_future()
        with self._cond:
            if self._closed:  # closed while the probe ran: nobody would pop it
                self.stats.rejected_on_close += 1
                raise ServiceError("async front closed before dispatch")
            self._seq += 1
            heapq.heappush(self._heap, [-priority, self._seq, pending])
            self.stats.queued_peak = max(self.stats.queued_peak, len(self._heap))
            self._cond.notify()
        return await pending.future

    @property
    def queued(self) -> int:
        with self._cond:
            return len(self._heap)

    # ------------------------------------------------------------------
    # Dispatch (worker-thread side)
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._closed:
                    self._cond.wait()
                if not self._heap:
                    self._cond.notify_all()  # wake close()'s drain wait
                    return
                pending = heapq.heappop(self._heap)[2]
                self._busy += 1
            try:
                self._dispatch(pending)
            finally:
                with self._cond:
                    self._busy -= 1
                    self._cond.notify_all()

    def _dispatch(self, pending: _Pending) -> None:
        if (
            pending.deadline is not None
            and time.perf_counter() >= pending.deadline
        ):
            with self._cond:
                self.stats.shed_expired += 1
            _resolve(
                pending,
                error=DeadlineExceededError(
                    "deadline expired while queued in the async front"
                ),
            )
            return
        try:
            response = self._serve(pending)
        except (KeyboardInterrupt, SystemExit):
            # The caller's future still resolves (a clean service error),
            # but the interrupt itself propagates and takes the dispatch
            # worker down — it belongs to the interpreter, not the query.
            _resolve(pending, error=ServiceError("execution interrupted"))
            raise
        except Exception as exc:
            _resolve(pending, error=exc)
            return
        _resolve(pending, result=response)

    def _serve(self, pending: _Pending, cached=None) -> QueryResponse:
        """The service's answer plus the front's count of it: on a
        dispatcher for a queued miss, on the event loop for ``cached``."""
        try:
            response = self.service.submit_qos(
                pending.query,
                deadline_s=(
                    None
                    if pending.deadline is None
                    else pending.deadline - time.perf_counter()
                ),
                priority=pending.priority,
                min_recall=pending.min_recall,
                tag=pending.tag,
                timeout_s=pending.timeout_s,
                explain_analyze=pending.explain_analyze,
                probed=(pending.keyed, cached),
            )
        except BaseException:
            with self._cond:
                self.stats.failed += 1
            raise
        with self._cond:
            self.stats.completed += 1
        return response
