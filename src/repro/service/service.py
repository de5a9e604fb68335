"""The concurrent query service fronting :class:`repro.query.Engine`.

``QueryService`` is the serving layer the ROADMAP's "heavy traffic"
north-star lands on: clients open lightweight sessions and submit
declarative queries from their own threads; the service keys each request
once and answers it from the semantic result cache when it can — on the
caller's thread, with nothing an execution needs — and otherwise applies
admission control (bounded in-flight work, backpressure rejections),
skips the optimizer through the plan cache, fuses concurrent same-source
E-selections into shared scans via the coalescing scheduler, and drives
the engine's morsel scheduler with per-query tags so scheduled work is
attributable per query.

On top of that sits the **QoS layer** (:meth:`QueryService.submit_qos`):
per-query deadlines, priorities, and permission to degrade
(``min_recall``).  A query whose deadline is provably unmeetable is shed
with :class:`~repro.errors.DeadlineExceededError` before it wastes an
execution slot; a selection whose caller allows it may instead be
*degraded* to an int8 code scan — and the response carries an explicit
``degraded`` flag, never a silent change.  The code scan reads a quarter
of the bytes but is not faster in NumPy (the codes are cast for the
GEMV, and a clustered corpus sends about half the top-k selections to
the proof's second pass), so once the tracker has timed it the same
query is shed instead.

Throughput — not single-query latency — is the service's contract, but
correctness is non-negotiable: every result returned **without** the
``degraded`` flag is bit-identical to executing the same query serially
on the underlying engine.  Degraded results bypass the result cache and
singleflight entirely, so their re-ranked scores are never replayed as
the exact path's.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from ..algebra.physical_planner import (
    ExecutionReport,
    eselect_query,
    execute,
    materialize_selection,
    unwrap_selection,
)
from ..config import get_config
from ..core.quantized_join import quantized_eselect
from ..errors import DeadlineExceededError, ServiceError, SessionClosedError
from ..obs.adapter import publish_service
from ..obs.capture import WorkloadRecorder
from ..obs.critical_path import SlowQueryLog
from ..obs.export import prometheus_text, traces_jsonl
from ..obs.metrics import registry as metrics_registry
from ..obs.server import ObservabilityServer
from ..obs.trace import Tracer, query_scope, span
from ..query.builder import Engine, QueryBuilder
from ..relational.table import Table
from ..reliability.breaker import breakers
from ..reliability.faults import active_injector, maybe_inject
from ..reliability.health import ServiceHealth
from ..reliability.retry import RetryBudget
from ..reliability.runtime import current_retry_budget, deadline_scope
from .admission import AdmissionController
from .coalescer import CoalescingScheduler, SharedScanRequest
from .plan_cache import PlanCache, fingerprint
from .qos import (
    DEFAULT_PRIORITY,
    ExecTimeTracker,
    QoSParams,
    QoSStats,
    QueryResponse,
)
from .semantic_cache import SemanticResultCache, params_signature, table_versions


def _given(**kwargs) -> dict:
    """The keywords a caller actually passed: ``None`` leaves a setting to
    the default of the constructor that consumes it."""
    return {name: value for name, value in kwargs.items() if value is not None}


class _InflightResult:
    """Singleflight slot: one execution that duplicates wait on."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Table | None = None
        self.error: BaseException | None = None


class SessionHandle:
    """A client's handle onto the service (context-manager friendly).

    Sessions are cheap — one per connected client — and carry per-session
    counters plus the tag prefix that attributes engine morsels to the
    session's queries.
    """

    def __init__(self, service: "QueryService", name: str) -> None:
        self.service = service
        self.name = name
        self.queries = 0
        self.errors = 0
        self._closed = False
        self._lock = threading.Lock()

    def query(self, table_name: str) -> QueryBuilder:
        """Start building a declarative query against the shared catalog."""
        return self.service.engine.query(table_name)

    def execute(
        self,
        query: "QueryBuilder | object",
        *,
        timeout_s: float | None = None,
        explain_analyze: bool = False,
    ) -> Table:
        """Submit a query (builder or logical plan) and block for its result.

        With ``explain_analyze=True`` the return value is the full
        :class:`~repro.service.qos.QueryResponse` (carrying the rendered
        span tree in ``.explain``) instead of the bare table.
        """
        seq = self._next_seq()
        try:
            return self.service.submit(
                query,
                tag=f"{self.name}/q{seq}",
                timeout_s=timeout_s,
                explain_analyze=explain_analyze,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            with self._lock:
                self.errors += 1
            raise

    def execute_qos(
        self,
        query: "QueryBuilder | object",
        *,
        deadline_s: float | None = None,
        priority: int = DEFAULT_PRIORITY,
        min_recall: float | None = None,
        timeout_s: float | None = None,
        explain_analyze: bool = False,
    ) -> QueryResponse:
        """Submit with QoS terms; block for the annotated response.

        Args:
            deadline_s: deadline relative to now (seconds).  The query is
                shed with ``DeadlineExceededError`` if it provably cannot
                meet it; a late-but-started query still returns (with
                ``deadline_met=False``).
            priority: larger values win admission and scheduling first.
            min_recall: below ``1.0``, lets the service degrade a
                deadline-pressed selection to an int8 code scan
                (response flagged ``degraded``).  ``None`` forbids
                degradation.
            timeout_s: admission backpressure bound (overload wait).
            explain_analyze: force-trace this query and attach the
                rendered span tree to ``response.explain``.
        """
        seq = self._next_seq()
        try:
            return self.service.submit_qos(
                query,
                deadline_s=deadline_s,
                priority=priority,
                min_recall=min_recall,
                tag=f"{self.name}/q{seq}",
                timeout_s=timeout_s,
                explain_analyze=explain_analyze,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            with self._lock:
                self.errors += 1
            raise

    def _next_seq(self) -> int:
        with self._lock:
            if self._closed:
                raise SessionClosedError(f"session {self.name!r} is closed")
            self.queries += 1
            return self.queries

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ServiceStats:
    """Service-level counters (cache/admission details live in their
    components; :meth:`QueryService.stats_snapshot` merges everything)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    coalesced: int = 0
    direct: int = 0
    result_cache_hits: int = 0
    #: Queries that piggybacked on an identical in-flight execution
    #: (singleflight): the result cache cannot catch duplicates that
    #: arrive while the first copy is still running, this does.
    singleflight_hits: int = 0


class QueryService:
    """Concurrent query service: admission + coalescing + caching + QoS.

    Args:
        engine: the query engine to front (catalog, models, indexes and
            shared stores all come from it).
        max_inflight: admission bound on concurrently executing queries.
        admission_timeout_s: backpressure wait before rejecting.
        coalesce: enable cross-query shared-scan batching (group commit:
            requests arriving while a source's scan slots are busy share
            the next scan).
        coalesce_max_batch: max queries fused into one shared scan.
        plan_cache_size: optimized-plan template cache capacity.
        result_cache_size: semantic result cache capacity (0 disables).
        result_cache_ttl_s: result cache entry time-to-live.
        obs_enabled: master switch for per-query trace sampling.
        obs_sample_rate: fraction of submissions traced (deterministic
            counter-hash schedule; ``explain_analyze`` bypasses it).
        obs_ring_size: completed traces retained for
            :meth:`recent_traces`.
        obs_sites: comma-separated span-site allowlist (empty: all).
        capture_path: JSONL workload-capture file; empty/``None`` (the
            default) disables the flight recorder entirely.
        capture_max_mb: capture file size bound before rotation.
        capture_keep: rotated capture generations retained.
        slow_k: slow-query log capacity (top-K slowest retired traces).
        http_port: start the live introspection endpoint on this port
            (``0`` picks a free one; ``None``, the default, serves
            nothing until :meth:`serve_http` is called).
        shard_procs: shard worker *processes* backing the coalesced scan
            (``0`` disables; requires ``coalesce=True`` to take effect).
            The pool publishes column stores into shared memory once and
            fans group scans out across the processes; results stay
            bit-identical to serial, and pool failures degrade to the
            in-process scan.

    ``None`` leaves a setting to the default of the component that
    consumes it (``docs/TUNING.md`` lists them); only ``capture_path``
    and ``http_port`` fall back to the process-wide config
    (``REPRO_OBS_CAPTURE`` / ``REPRO_OBS_HTTP_PORT``).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        max_inflight: int | None = None,
        admission_timeout_s: float | None = None,
        coalesce: bool = True,
        coalesce_max_batch: int | None = None,
        plan_cache_size: int | None = None,
        result_cache_size: int | None = None,
        result_cache_ttl_s: float | None = None,
        obs_enabled: bool | None = None,
        obs_sample_rate: float | None = None,
        obs_ring_size: int | None = None,
        obs_sites: str | None = None,
        capture_path: str | None = None,
        capture_max_mb: float | None = None,
        capture_keep: int | None = None,
        slow_k: int | None = None,
        http_port: int | None = None,
        shard_procs: int = 0,
    ) -> None:
        config = get_config()
        self.engine = engine
        self.admission = AdmissionController(
            **_given(max_inflight=max_inflight, timeout_s=admission_timeout_s)
        )
        self.plans = PlanCache(**_given(capacity=plan_cache_size))
        self.results = SemanticResultCache(
            **_given(capacity=result_cache_size, ttl_s=result_cache_ttl_s)
        )
        self.coalescer = (
            CoalescingScheduler(engine, **_given(max_batch=coalesce_max_batch))
            if coalesce
            else None
        )
        self.shard_pool = None
        if shard_procs and self.coalescer is not None:
            from ..shard import ShardPool

            self.shard_pool = ShardPool(engine, shard_procs)
            self.coalescer.shard_pool = self.shard_pool
        self.stats = ServiceStats()
        self.qos = QoSStats()
        self.qos_tracker = ExecTimeTracker()
        self._stats_lock = threading.Lock()
        self._inflight_results: dict[tuple, _InflightResult] = {}
        self._singleflight_lock = threading.Lock()
        self._sessions = 0
        self._closed = False
        self.tracer = Tracer(
            **_given(
                enabled=obs_enabled,
                sample_rate=obs_sample_rate,
                ring_size=obs_ring_size,
                sites=obs_sites,
            )
        )
        self.metrics_registry = metrics_registry()
        #: Hot-path metric handles, resolved once: submission outcomes
        #: and a latency histogram are the only metrics the service
        #: updates live — everything else is pull-published by
        #: :meth:`metrics` through the adapter.
        self._m_completed = self.metrics_registry.counter(
            "repro_queries_total", outcome="completed"
        )
        self._m_failed = self.metrics_registry.counter(
            "repro_queries_total", outcome="failed"
        )
        self._m_shed = self.metrics_registry.counter(
            "repro_queries_total", outcome="shed"
        )
        self._m_rejected = self.metrics_registry.counter(
            "repro_queries_total", outcome="rejected"
        )
        self._m_latency = self.metrics_registry.histogram(
            "repro_query_latency_seconds"
        )
        self._query_ids = itertools.count(1)
        self.slow_log = SlowQueryLog(**_given(k=slow_k))
        capture = (
            config.obs_capture_path if capture_path is None else capture_path
        )
        max_bytes = None if capture_max_mb is None else int(capture_max_mb * 2**20)
        self.recorder: WorkloadRecorder | None = (
            WorkloadRecorder(
                capture, **_given(max_bytes=max_bytes, keep=capture_keep)
            )
            if capture
            else None
        )
        self._http_server: ObservabilityServer | None = None
        port = config.obs_http_port if http_port is None else http_port
        if port is not None:
            self.serve_http(port=port)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, name: str | None = None) -> SessionHandle:
        """Open a cheap per-client session handle."""
        with self._stats_lock:
            self._sessions += 1
            seq = self._sessions
        return SessionHandle(self, name or f"session-{seq}")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: "QueryBuilder | object",
        *,
        tag: str = "svc/anon",
        timeout_s: float | None = None,
        explain_analyze: bool = False,
    ) -> Table:
        """Answer one query — from the result cache, or admit, plan, and
        execute it; blocks until the result.

        The no-QoS entry point: no deadline, default priority, never
        degraded — the returned table is always bit-identical to serial
        execution.  Called from client threads; the service has no worker
        pool of its own; concurrency is whatever the callers bring,
        bounded by admission control.

        With ``explain_analyze=True`` the query is force-traced and the
        full :class:`~repro.service.qos.QueryResponse` is returned
        instead of the bare table: ``.explain`` carries the rendered
        per-query span tree, ``.trace`` the raw spans.
        """
        response = self.submit_qos(
            query,
            min_recall=1.0,
            tag=tag,
            timeout_s=timeout_s,
            explain_analyze=explain_analyze,
        )
        return response if explain_analyze else response.table

    def submit_qos(
        self,
        query: "QueryBuilder | object",
        *,
        deadline_s: float | None = None,
        priority: int = DEFAULT_PRIORITY,
        min_recall: float | None = None,
        tag: str = "svc/anon",
        timeout_s: float | None = None,
        explain_analyze: bool = False,
        probed: tuple | None = None,
    ) -> QueryResponse:
        """Submit with QoS terms; return the result plus its QoS metadata.

        A request is keyed once and looked up in the result cache before
        anything else is spent on it: a cached answer takes no execution
        slot, no retry budget and no optimized plan, and returns on the
        calling thread.  Only a miss is admitted, planned and executed.

        The deadline drives three decisions, all *before* execution:

        * already expired (at submission or while queued for admission)
          → shed with :class:`~repro.errors.DeadlineExceededError`;
        * execution-time estimate proves full precision unmeetable,
          ``min_recall`` allows degrading and the degraded estimate is
          unknown or fits → run the selection over int8 codes, response
          flagged ``degraded``;
        * estimate proves even the cheapest allowed path unmeetable →
          shed with ``DeadlineExceededError``.

        A query that *starts* in time but finishes late is returned
        anyway, with ``deadline_met=False`` — shedding never discards
        computed results.

        Args:
            deadline_s: deadline relative to now, in seconds (``None``:
                no deadline).
            priority: larger values win admission first among waiters.
            min_recall: the caller's permission to degrade: below ``1.0``
                a selection may run over int8 codes (whose top-k and
                threshold answers are proved exact, their scores re-ranked
                in fp32); ``None`` or ``1.0`` forbids it.
            tag: morsel-attribution tag for the engine scheduler.
            timeout_s: admission backpressure bound.
            explain_analyze: force-trace this query (bypassing sampling);
                ``response.explain`` renders the span tree when read.
            probed: the async front's hand-off, not a caller's argument —
                what :meth:`probe` already returned for this query
                (``(keyed, cached)``), so it is not keyed twice.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        start = time.perf_counter()
        qos = QoSParams.from_relative(
            deadline_s, priority=priority, min_recall=min_recall, now=start
        )
        plan = query.plan if isinstance(query, QueryBuilder) else query
        if qos.deadline is not None:
            with self._stats_lock:
                self.qos.with_deadline += 1
        query_id = f"q{next(self._query_ids)}"
        trace = self.tracer.maybe_trace(query_id, tag, force=explain_analyze)
        recorder = self.recorder
        arrival_s = recorder.offset() if recorder is not None else 0.0
        response = None
        error: BaseException | None = None
        try:
            with query_scope(trace):
                response = self._submit_scoped(
                    plan, qos, tag, start, timeout_s, probed
                )
        except BaseException as exc:
            error = exc
            raise
        finally:
            # Shed / rejected / failed queries retire into the ring too —
            # those are exactly the traces an operator wants to see.
            if trace is not None:
                self.tracer.record(trace)
                self.slow_log.offer(trace)
            if recorder is not None:
                try:
                    recorder.record(
                        plan=plan,
                        tag=tag,
                        query_id=query_id,
                        arrival_s=arrival_s,
                        deadline_s=deadline_s,
                        priority=priority,
                        min_recall=min_recall,
                        response=response,
                        error=error,
                    )
                except Exception:
                    # A full disk must degrade capture, never serving.
                    pass
        response.query_id = query_id
        response.trace = trace
        return response

    def probe(self, query, keyed: tuple | None = None) -> tuple:
        """Key ``query`` (unless ``keyed`` already) and look its result up.

        Returns ``(keyed, key, cached)``: ``keyed`` is the plan's
        fingerprint and payload signature — the two expensive parts,
        computed once per request and valid for as long as the plan is;
        ``key`` adds everything else that can change a result, read at
        this instant: table data versions, the index epoch (registering
        an index can flip the physical access path — approximate for
        HNSW/IVF), the model registry's epoch (a replaced model embeds
        differently), and the precision config (an fp16 scan's scores are
        approximate and a quantized one's re-ranked, so results cached
        under one REPRO_PRECISION mode must not survive a config change).
        Takes only the result cache's lock, so the async front calls it on
        the event loop.
        """
        if keyed is None:
            plan = query.plan if isinstance(query, QueryBuilder) else query
            shape = fingerprint(plan)
            keyed = (shape, params_signature(shape.params))
        shape, signature = keyed
        versions = (
            *table_versions(shape.tables, self.engine.catalog),
            ("__indexes__", self.engine.index_epoch),
            ("__models__", self.engine.models.epoch),
            ("__precision__", get_config().default_precision),
        )
        key = (shape.key, versions, signature)
        return keyed, key, self.results.lookup(key)

    def _submit_scoped(
        self,
        plan,
        qos: QoSParams,
        tag: str,
        start: float,
        timeout_s: float | None,
        probed: tuple | None,
    ) -> QueryResponse:
        """One submission inside its trace scope: probe, and only on a miss
        the admitted lifetime."""
        keyed, cached = probed or (None, None)
        key = None
        # An already-expired deadline skips the probe: admission sheds it
        # below, whether or not the answer is cached.
        if qos.deadline is None or start < qos.deadline:
            try:
                with span("cache.lookup") as sp:
                    if cached is None:
                        keyed, key, cached = self.probe(plan, keyed)
                    sp.set(hit=cached is not None)
            except Exception as exc:
                self._count_failed(exc, submitted=1)
                raise
            if cached is not None:
                return self._complete(
                    self._respond(cached, qos, start, cache_hit=True)
                )
        with span("admission") as sp:
            sp.set(priority=qos.priority)
            try:
                self.admission.acquire(
                    timeout_s=timeout_s,
                    priority=qos.priority,
                    deadline=qos.deadline,
                )
            except DeadlineExceededError:
                with self._stats_lock:
                    self.qos.shed_expired += 1
                self._m_shed.inc()
                raise
            except Exception:
                self._m_rejected.inc()
                raise
        with self._stats_lock:
            self.stats.submitted += 1
        try:
            # The ambient scope carries the deadline and a per-query retry
            # budget down into every engine run this query performs, so
            # morsel retries are deadline-aware and budget-capped without
            # threading QoS through operator signatures.
            with deadline_scope(qos.deadline, retry_budget=RetryBudget()):
                response = self._run_admitted(plan, keyed, key, qos, tag, start)
            return self._complete(response)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._count_failed(exc)
            raise
        finally:
            self.admission.release()

    def _complete(self, response: QueryResponse) -> QueryResponse:
        """The one completion step, for a cached answer and an executed one."""
        with self._stats_lock:
            if response.cache_hit:  # never admitted, so not yet counted
                self.stats.submitted += 1
                self.stats.result_cache_hits += 1
            self.stats.completed += 1
            if response.degraded:
                self.qos.degraded += 1
            if response.deadline_met is True:
                self.qos.deadline_met += 1
            elif response.deadline_met is False:
                self.qos.deadline_missed += 1
        self._m_completed.inc()
        self._m_latency.observe(response.latency_s)
        return response

    def _count_failed(self, exc: Exception, *, submitted: int = 0) -> None:
        with self._stats_lock:
            self.stats.submitted += submitted
            self.stats.failed += 1
        if isinstance(exc, DeadlineExceededError):
            self._m_shed.inc()
        else:
            self._m_failed.inc()

    def _run_admitted(
        self, plan, keyed: tuple, key: tuple, qos: QoSParams, tag: str, start: float
    ) -> QueryResponse:
        """Plan a result-cache miss, decide shed/degrade/full, and execute."""
        optimized = self.plans.optimize(
            plan, catalog=self.engine.catalog, shape=keyed[0]
        )
        remaining = qos.remaining()
        if remaining is not None:
            estimate = self.qos_tracker.estimate("full")
            if estimate is not None and estimate > remaining:
                # Full precision provably misses the deadline.  Degrade if
                # the caller allows it and the code scan fits, otherwise
                # shed now rather than burn a slot for nothing.
                precision = self._degraded_precision(optimized, qos.min_recall)
                degraded_est = self.qos_tracker.estimate("degraded")
                if precision is None or (
                    degraded_est is not None and degraded_est > remaining
                ):
                    with self._stats_lock:
                        self.qos.shed_unmeetable += 1
                    with span("qos.decision") as sp:
                        sp.set(
                            action="shed",
                            estimate_s=estimate,
                            remaining_s=remaining,
                        )
                    raise DeadlineExceededError(
                        f"estimated execution {estimate:.3g}s exceeds the "
                        f"{remaining:.3g}s left before the deadline"
                    )
                with span("qos.degraded") as sp:
                    sp.set(precision=precision, remaining_s=remaining)
                    exec_start = time.perf_counter()
                    retry = self.engine.executor.retry_policy.bind(
                        deadline=qos.deadline, budget=current_retry_budget()
                    )
                    table = retry.call(
                        lambda: self._execute_degraded(
                            optimized, precision, tag
                        )
                    )
                    self.qos_tracker.observe(
                        "degraded", time.perf_counter() - exec_start
                    )
                # Degraded tables bypass the result cache and singleflight:
                # their scores are the code path's fp32 re-rank, not the
                # exact path's bits, so they never stand in for its answer.
                return self._respond(
                    table, qos, start, degraded=True, precision=precision
                )
        # Singleflight: an identical query already executing means this
        # one just waits for that result — the result cache cannot catch
        # duplicates that arrive mid-execution.
        with self._singleflight_lock:
            slot = self._inflight_results.get(key)
            owner = slot is None
            if owner:
                slot = _InflightResult()
                self._inflight_results[key] = slot
        if not owner:
            with span("singleflight.wait"):
                slot.done.wait()
            if slot.error is not None:
                raise slot.error
            with self._stats_lock:
                self.stats.singleflight_hits += 1
            assert slot.result is not None
            return self._respond(slot.result, qos, start)
        try:
            exec_start = time.perf_counter()
            result = self._dispatch(optimized, qos, tag)
            exec_seconds = time.perf_counter() - exec_start
            self.qos_tracker.observe("full", exec_seconds)
            with span("cache.store") as sp:
                sp.set(cost_s=exec_seconds)
                self.results.store(key, result)
            slot.result = result
        except (KeyboardInterrupt, SystemExit):
            # Waiters still get a resolved future — a clean service error,
            # not the interpreter-level interrupt, which belongs to the
            # thread that received it.
            slot.error = ServiceError("execution interrupted")
            raise
        except Exception as exc:
            slot.error = exc
            raise
        finally:
            with self._singleflight_lock:
                del self._inflight_results[key]
            slot.done.set()
        return self._respond(result, qos, start)

    def _dispatch(self, optimized, qos: QoSParams, tag: str) -> Table:
        """Execute a planned query under the service-level retry wrapper.

        Engine runs already retry at morsel granularity; this outer layer
        covers transient faults raised *outside* a scheduler run — kernel
        calls made inline on the dispatching thread, store builds, the
        ``service.dispatch`` injection site itself.  Queries are pure, so
        whole-query re-execution is as bit-safe as morsel re-execution;
        the shared per-query budget (ambient scope) caps the total.
        """

        def attempt() -> Table:
            maybe_inject("service.dispatch")
            return self._execute(optimized, tag)

        retry = self.engine.executor.retry_policy.bind(
            deadline=qos.deadline, budget=current_retry_budget()
        )
        return retry.call(attempt)

    @staticmethod
    def _respond(
        table: Table,
        qos: QoSParams,
        start: float,
        *,
        degraded: bool = False,
        precision: str = "fp32",
        cache_hit: bool = False,
    ) -> QueryResponse:
        now = time.perf_counter()
        met = None if qos.deadline is None else now <= qos.deadline
        return QueryResponse(
            table=table,
            degraded=degraded,
            precision=precision,
            latency_s=now - start,
            deadline_met=met,
            cache_hit=cache_hit,
        )

    def _execute(self, optimized, tag: str) -> Table:
        request = None
        # Quantized scan substitution is a per-query planner decision: under
        # an int8 / pq default every query takes the normal path.
        quantized = get_config().default_precision in ("int8", "pq")
        if self.coalescer is not None and not quantized:
            request = SharedScanRequest.of(optimized, self.engine.embed_store_for)
        if request is not None:
            with self._stats_lock:
                self.stats.coalesced += 1
            with span("execute") as sp:
                sp.set(mode="coalesced")
                return self.coalescer.submit(request)
        with self._stats_lock:
            self.stats.direct += 1
        ctx = self.engine.context(tag=tag)
        report = ExecutionReport()
        with span("execute") as sp:
            result = execute(optimized, ctx, report=report)
            sp.set(
                mode="direct",
                strategies=report.strategies,
                fallbacks=len(report.fallbacks),
            )
        return result

    # ------------------------------------------------------------------
    # Degraded (int8 code scan) execution
    # ------------------------------------------------------------------
    @staticmethod
    def _degraded_precision(optimized, min_recall: float | None) -> str | None:
        """``"int8"`` when the caller allows degrading (``min_recall <
        1.0``) and the plan is a selection the code path runs
        (``Project*/Limit*(ESelect(Scan))``), else ``None`` — those
        queries shed rather than degrade.  PQ is never offered: its
        bound proves no top-k row, so every row would scan twice.
        """
        if min_recall is None or min_recall >= 1.0:
            return None
        return None if unwrap_selection(optimized) is None else "int8"

    def _execute_degraded(self, optimized, precision: str, tag: str) -> Table:
        """Quantized E-selection for a deadline-pressed query.

        Streams the compressed codes (shared, build-once via the engine
        context's quantized store cache) instead of the fp32 matrix; the
        emitted rows are the exact selection's, their scores the codes'
        fp32 re-rank.
        """
        wrappers, node = unwrap_selection(optimized)  # _degraded_precision matched it
        ctx = self.engine.context(tag=tag)
        table = ctx.catalog.get(node.child.table_name)
        key = (node.child.table_name, node.column, node.model_name)
        store = ctx.quant_store_for(key, table, precision)
        query = eselect_query(node, ctx.store_for)
        result = quantized_eselect(store, query, node.condition)
        return materialize_selection(
            table, result.ids, result.scores, node.score_column, wrappers
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_table(self, name: str) -> int:
        """Eagerly drop cached results referencing ``name``."""
        return self.results.invalidate_table(name)

    def stats_snapshot(self) -> dict:
        """One merged dict of every layer's counters."""
        with self._stats_lock:
            service = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "coalesced": self.stats.coalesced,
                "direct": self.stats.direct,
                "result_cache_hits": self.stats.result_cache_hits,
                "singleflight_hits": self.stats.singleflight_hits,
                "sessions": self._sessions,
            }
            qos = self.qos.snapshot()
        qos["exec_estimates"] = self.qos_tracker.snapshot()
        # Every component snapshot below is taken under that component's
        # own lock (``stats_snapshot`` / ``EngineStats.snapshot``), so
        # each block is internally consistent even while queries run.
        snapshot = {
            "service": service,
            "qos": qos,
            "admission": self.admission.stats_snapshot(),
            "plan_cache": self.plans.stats_snapshot(),
            "result_cache": self.results.stats_snapshot(),
        }
        if self.coalescer is not None:
            snapshot["coalescer"] = self.coalescer.stats_snapshot()
        if self.shard_pool is not None:
            snapshot["shard"] = self.shard_pool.stats_snapshot()
        snapshot["engine"] = self.engine.executor.stats.snapshot()
        return snapshot

    def health(self) -> ServiceHealth:
        """One coherent reliability snapshot of the running service.

        ``status`` is ``"degraded"`` (not an error — the service still
        serves) whenever any circuit breaker is routing around a failing
        access path or the watchdog has observed worker loss; breaker,
        retry, watchdog, fault-injection, QoS, and service counters come
        along so the cause is visible in the same picture.
        """
        engine_snap = self.engine.executor.stats.snapshot()
        registry = breakers()
        open_breakers = registry.open_count()
        watchdog = {
            "stalls": engine_snap["watchdog_stalls"],
            "worker_deaths": engine_snap["worker_deaths"],
            "respawns": engine_snap["worker_respawns"],
            "reenqueued_tasks": engine_snap["reenqueued_tasks"],
        }
        injector = active_injector()
        with self._stats_lock:
            service = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
            }
            qos = self.qos.snapshot()
        shard = (
            self.shard_pool.worker_health()
            if self.shard_pool is not None
            else {}
        )
        status = (
            "ok"
            if open_breakers == 0
            and engine_snap["worker_deaths"] == 0
            and shard.get("worker_deaths", 0) == 0
            and shard.get("stalls", 0) == 0
            else "degraded"
        )
        return ServiceHealth(
            status=status,
            breakers=registry.snapshot(),
            open_breakers=open_breakers,
            retries=self.engine.executor.retry_policy.stats.snapshot(),
            watchdog=watchdog,
            faults=injector.stats.snapshot() if injector is not None else {},
            qos=qos,
            service=service,
            shard=shard,
        )

    # ------------------------------------------------------------------
    # Observability exports
    # ------------------------------------------------------------------
    def metrics(self) -> str:
        """Prometheus-style text exposition of every layer's counters.

        Pull-based: each call syncs the ``*Stats`` snapshots into the
        process-wide registry through the adapter, then renders the
        whole registry (including the live counters and any breaker
        transition counts) as text.
        """
        publish_service(self, self.metrics_registry)
        return prometheus_text(self.metrics_registry)

    def recent_traces(self) -> list:
        """Completed sampled/forced traces, oldest first (bounded ring)."""
        return self.tracer.recent()

    def traces_jsonl(self) -> str:
        """The trace ring as JSON-lines (one trace dict per line)."""
        return traces_jsonl(self.tracer.recent())

    def slow_queries(self) -> list[dict]:
        """Top-K slowest retired traces with their critical paths.

        Each entry is a precomputed summary (wall/CPU, hotspots by self
        time, root-to-leaf critical path), slowest first.  Populated
        only from *traced* queries — at the default sample rate that is
        a sample of the slow tail, not a census.
        """
        return self.slow_log.snapshot()

    def serve_http(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> ObservabilityServer:
        """Start (or return) the live introspection endpoint.

        Exposes ``/metrics``, ``/health``, ``/traces``, and ``/slow`` on
        a daemon thread; ``port=0`` binds a free port, readable from the
        returned server's ``.port``.  Idempotent: a second call returns
        the running server.
        """
        if self._http_server is None:
            self._http_server = ObservabilityServer(self, host=host, port=port)
        return self._http_server

    def shutdown(
        self, *, drain: bool = True, timeout_s: float | None = None
    ) -> bool:
        """Refuse new submissions; optionally drain in-flight work.

        With ``drain=True`` (the default) blocks until every admitted
        query has completed — the graceful shutdown clients expect: no
        accepted work is abandoned mid-execution.  Returns ``True`` once
        idle, ``False`` if ``timeout_s`` elapsed with work still in
        flight (the service stays closed either way).
        """
        self._closed = True
        idle = True
        if drain:
            idle = self.admission.wait_idle(timeout_s)
        if self._http_server is not None:
            self._http_server.close()
            self._http_server = None
        if self.recorder is not None:
            self.recorder.close()
        if self.shard_pool is not None:
            # Terminates workers and unlinks every shared-memory segment;
            # runs even on a failed drain so segments can never leak.
            self.shard_pool.close()
        return idle

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
