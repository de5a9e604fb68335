"""The concurrent query service fronting :class:`repro.query.Engine`.

``QueryService`` is the serving layer the ROADMAP's "heavy traffic"
north-star lands on: clients submit declarative queries from their own
threads (:meth:`QueryService.submit`, with a ``tag`` naming client and
query); the service keys each request once and answers it from the
result cache when it can — on the caller's thread, with nothing an
execution needs — and otherwise applies admission control (bounded
in-flight work, backpressure rejections), optimizes the plan as
:meth:`QueryBuilder.execute` does, fuses concurrent same-source
E-selections into shared scans via the coalescing scheduler, and drives
the engine's morsel runs with per-query tags so scheduled work is
attributable per query.

On top of that sits the **QoS layer** (:meth:`QueryService.submit_qos`):
per-query deadlines and priorities, and one rule — a query whose
execution-time estimate exceeds the time left before its deadline is
shed with :class:`~repro.errors.DeadlineExceededError` before it wastes
an execution slot.  There is no cheaper mode to fall back to.

Throughput — not single-query latency — is the service's contract, but
correctness is non-negotiable: every result returned is bit-identical to
executing the same query serially on the underlying engine.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from ..algebra.optimizer import Optimizer
from ..algebra.physical_planner import ExecutionReport, execute
from ..config import get_config
from ..errors import DeadlineExceededError, ServiceError
from ..obs.capture import WorkloadRecorder
from ..obs.critical_path import SlowQueryLog
from ..obs.export import METRIC_HELP, prometheus_text, snapshot_rows, traces_jsonl
from ..obs.metrics import Histogram
from ..obs.server import ObservabilityServer
from ..obs.trace import QueryScope, Tracer, current_scope, current_trace, span
from ..query.builder import Engine, QueryBuilder
from ..relational.table import Table
from ..reliability.faults import active_injector, maybe_inject
from ..reliability.health import ServiceHealth
from .admission import AdmissionController
from .coalescer import CoalescingScheduler, SharedScanRequest
from .qos import DEFAULT_PRIORITY, ExecTimeTracker, QueryResponse
from .result_cache import (
    ResultCache,
    fingerprint,
    params_signature,
    table_versions,
)


def _given(**kwargs) -> dict:
    """The keywords a caller actually passed: ``None`` leaves a setting to
    the default of the constructor that consumes it."""
    return {name: value for name, value in kwargs.items() if value is not None}


class _Flight:
    """One execution's outcome for identical queries arriving while it runs
    (singleflight); the first of them makes the event they wait on."""

    __slots__ = ("result", "error", "landed")

    def __init__(self) -> None:
        self.result = self.error = self.landed = None


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
    #: Of ``failed``: the deadline sheds.  A shed before admission and a
    #: backpressure rejection are admission's ``deadline_shed`` and
    #: ``rejected``: never admitted, so in neither count here.
    shed: int = 0
    #: The QoS counts: submissions that carried a deadline; of ``shed``,
    #: those the execution-time estimate proved unmeetable; completions
    #: before and after their deadline (late, not shed).
    with_deadline: int = 0
    shed_unmeetable: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0


class QueryService:
    """Concurrent query service: admission + coalescing + caching + QoS.

    Args:
        engine: the query engine to front (catalog, models, indexes and
            shared stores all come from it).
        max_inflight: admission bound on concurrently executing queries.
        coalesce: enable cross-query shared-scan batching (group commit:
            requests arriving while a source's scan slots are busy share
            the next scan).
        result_cache_size: result cache capacity (0 disables).
        obs_sample_rate: fraction of submissions traced (deterministic
            counter-hash schedule; ``0.0`` traces none;
            ``explain_analyze`` bypasses it).
        capture_path: JSONL workload-capture file; empty/``None`` (the
            default) disables the flight recorder entirely.
        http_port: start the live introspection endpoint on this port
            (``0`` picks a free one; ``None``, the default, serves
            nothing until :meth:`serve_http` is called).
        shard_procs: shard worker *processes* backing the coalesced scan
            (``0`` disables; requires ``coalesce=True`` to take effect).
            The pool publishes column stores into shared memory once and
            fans group scans out across the processes; results stay
            bit-identical to serial, and pool failures fall back to the
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
        coalesce: bool = True,
        result_cache_size: int | None = None,
        obs_sample_rate: float | None = None,
        capture_path: str | None = None,
        http_port: int | None = None,
        shard_procs: int = 0,
    ) -> None:
        config = get_config()
        self.engine = engine
        #: The rules, built once; every miss optimizes with them.
        self._optimizer = Optimizer(catalog=engine.catalog)
        self.admission = AdmissionController(**_given(max_inflight=max_inflight))
        self.results = ResultCache(**_given(capacity=result_cache_size))
        self.coalescer = CoalescingScheduler(engine) if coalesce else None
        self.shard_pool = None
        if shard_procs and self.coalescer is not None:
            from ..shard import ShardPool

            self.shard_pool = ShardPool(engine, shard_procs)
            self.coalescer.shard_pool = self.shard_pool
        self.stats = ServiceStats()
        self.qos_tracker = ExecTimeTracker()
        self._stats_lock = threading.Lock()
        #: Singleflight slots: one execution's outcome, that duplicates wait on.
        self._inflight_results: dict[tuple, _Flight] = {}
        self._singleflight_lock = threading.Lock()
        self._closed = False
        self.tracer = Tracer(**_given(sample_rate=obs_sample_rate))
        #: The one distribution no ``*Stats`` snapshot holds.
        self._latency = Histogram()
        self._query_ids = itertools.count(1)
        self.slow_log = SlowQueryLog()
        capture = (
            config.obs_capture_path if capture_path is None else capture_path
        )
        self.recorder: WorkloadRecorder | None = (
            WorkloadRecorder(capture) if capture else None
        )
        self._http_server: ObservabilityServer | None = None
        port = config.obs_http_port if http_port is None else http_port
        if port is not None:
            self.serve_http(port=port)

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

        The no-QoS entry point: no deadline, default priority — the
        returned table is bit-identical to serial execution.  Called from
        client threads; the service has no worker pool of its own;
        concurrency is whatever the callers bring, bounded by admission
        control.

        With ``explain_analyze=True`` the query is force-traced and the
        full :class:`~repro.service.qos.QueryResponse` is returned
        instead of the bare table: ``.explain`` carries the rendered
        per-query span tree, ``.trace`` the raw spans.
        """
        response = self.submit_qos(
            query,
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
        tag: str = "svc/anon",
        timeout_s: float | None = None,
        explain_analyze: bool = False,
        probed: tuple | None = None,
    ) -> QueryResponse:
        """Submit with QoS terms; return the result plus its QoS metadata.

        A request is keyed once and looked up in the result cache before
        anything else is spent on it: a cached answer takes no execution
        slot, no retry budget and no optimized plan, and returns on the
        calling thread.  When nothing traces, sheds or captures it (sampled
        out, no deadline, no recorder), it completes in one step, with no
        query scope and no span.  Only a miss is admitted, planned and
        executed.

        The deadline sheds a query, always *before* execution, with
        :class:`~repro.errors.DeadlineExceededError` when it has already
        expired (at submission or while queued for admission) or when the
        execution-time estimate exceeds the time left.

        A query that *starts* in time but finishes late is returned
        anyway, with ``deadline_met=False`` — shedding never discards
        computed results.

        Args:
            deadline_s: deadline relative to now, in seconds (``None``:
                no deadline).
            priority: larger values win admission first among waiters.
            tag: names the query to the engine's per-tag
                morsel counts, the trace and the workload capture; a
                client passes its own (``f"client-{c}/q{i}"``).
            timeout_s: admission backpressure bound.
            explain_analyze: force-trace this query (bypassing sampling);
                ``response.explain`` renders the span tree when read.
            probed: the async front's hand-off, not a caller's argument —
                what its :meth:`probe` returned for this query and the
                ``perf_counter`` reading it started at (``(keyed, cached,
                probed_at)``), so it is not keyed twice.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        start = time.perf_counter()
        deadline = None if deadline_s is None else start + float(deadline_s)
        plan = query.plan if isinstance(query, QueryBuilder) else query
        if deadline is not None:
            with self._stats_lock:
                self.stats.with_deadline += 1
        query_id = f"q{next(self._query_ids)}"
        trace = self.tracer.maybe_trace(query_id, tag, force=explain_analyze)
        recorder = self.recorder
        keyed, cached, probed_at = probed or (None, None, None)
        key = None
        if trace is None and deadline is None and recorder is None:
            # Nothing to trace, shed or capture: a cached answer completes
            # here, in one step, and a miss goes on already keyed.
            if cached is None:
                try:
                    keyed, key, cached = self.probe(plan, keyed)
                except Exception as exc:
                    self._count_failed(exc, submitted=1)
                    raise
            if cached is not None:
                # A front's hit is timed from its probe, which found it.
                began = start if probed_at is None else probed_at
                return self._complete(cached, True, began, None, query_id, None, submitted=1)
        arrival_s = recorder.offset() if recorder is not None else 0.0
        response = None
        error: BaseException | None = None
        try:
            # The one per-query scope: every layer below reads the trace,
            # deadline, tag and retry budget from it, none takes them as
            # parameters.
            with QueryScope(trace, deadline=deadline, tag=tag):
                table, cache_hit = self._submit_scoped(
                    plan, priority, deadline, start, timeout_s, keyed, key, cached, probed_at
                )
            response = self._complete(table, cache_hit, start, deadline, query_id, trace)
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
                        plan=plan, tag=tag, query_id=query_id, arrival_s=arrival_s,
                        deadline_s=deadline_s, priority=priority, response=response,
                        error=error,
                    )
                except Exception:
                    # A full disk must degrade capture, never serving.
                    pass
        return response

    def _complete(
        self, table: Table, cache_hit: bool, start: float, deadline: float | None,
        query_id: str, trace, submitted: int = 0,
    ) -> QueryResponse:
        """The one completion step, for a cached answer and an executed one:
        the response, one hold of ``_stats_lock`` (``submitted`` counts a
        hit that :meth:`submit_qos` answered before any scope) and the
        latency."""
        now = time.perf_counter()
        met = None if deadline is None else now <= deadline
        response = QueryResponse(
            table, now - start, met, cache_hit, query_id=query_id, trace=trace
        )
        with self._stats_lock:
            stats = self.stats
            stats.submitted += submitted
            stats.completed += 1
            stats.result_cache_hits += cache_hit
            stats.deadline_met += met is True
            stats.deadline_missed += met is False
        self._latency.observe(response.latency_s)
        return response

    def probe(self, query, keyed: tuple | None = None) -> tuple:
        """Key ``query`` (unless ``keyed`` already) and look its result up.

        Returns ``(keyed, key, cached)``: ``keyed`` is the plan's
        fingerprint and payload signature — the two expensive parts,
        computed once per request and valid for as long as the plan is;
        ``key`` adds everything else that can change a result, read at
        this instant: table data versions, the index epoch (registering
        an index can flip the physical access path — approximate for
        HNSW/IVF) and the model registry's epoch (a replaced model embeds
        differently).
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
        )
        key = (shape.key, versions, signature)
        return keyed, key, self.results.lookup(key)

    def _submit_scoped(
        self, plan, priority: int, deadline: float | None, start: float,
        timeout_s: float | None, keyed, key, cached, probed_at,
    ) -> tuple[Table, bool]:
        """One submission inside its query scope: key once, probe (unless
        :meth:`submit_qos` missed already, with ``key``, or the front's probe
        begun at ``probed_at`` found ``cached``), and only on a miss admit it
        and :meth:`_run_admitted`.  Returns the answer and whether it hit."""
        # An already-expired deadline skips the probe: admission sheds it
        # below, whether or not the answer is cached.
        if deadline is None or start < deadline:
            if cached is not None:
                # The front probed on its event loop before this trace
                # existed: the span covers that probe, up to this call.
                trace = current_trace()
                if trace is not None:
                    wall_s = start - probed_at
                    trace.add_span("cache.lookup", start=probed_at, wall_s=wall_s, hit=True)
            elif key is None:
                try:
                    with span("cache.lookup") as sp:
                        keyed, key, cached = self.probe(plan, keyed)
                        sp.set(hit=cached is not None)
                except Exception as exc:
                    self._count_failed(exc, submitted=1)
                    raise
            if cached is not None:
                with self._stats_lock:  # never admitted, so not yet counted
                    self.stats.submitted += 1
                return cached, True
        # A shed or a rejection is admission's count alone: never admitted,
        # so the service counts it nowhere.
        with span("admission", priority=priority):
            queued = self.admission.acquire(
                timeout_s=timeout_s, priority=priority, deadline=deadline
            )
        with self._stats_lock:
            self.stats.submitted += 1
        try:
            return self._run_admitted(plan, keyed, key, deadline, queued)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._count_failed(exc)
            raise
        finally:
            self.admission.release()

    def _count_failed(self, exc: Exception, *, submitted: int = 0) -> None:
        with self._stats_lock:
            self.stats.submitted += submitted
            self.stats.failed += 1
            if isinstance(exc, DeadlineExceededError):
                self.stats.shed += 1

    def _run_admitted(
        self, plan, keyed: tuple, key: tuple, deadline: float | None, queued: bool
    ) -> tuple[Table, bool]:
        """An admitted miss: probe again if it queued, optimize it as
        :meth:`QueryBuilder.execute` does, shed it if its deadline is
        provably unmeetable, then wait for an identical execution already
        running or run it and store the result."""
        if queued:
            # An identical query may have finished while this one waited.
            # Probed through ``keyed``, so the versions are read now: a
            # table re-registered during the wait still misses.
            with span("cache.lookup") as sp:
                keyed, key, cached = self.probe(plan, keyed)
                sp.set(hit=cached is not None)
            if cached is not None:
                return cached, True
        with span("plan.optimize"):
            optimized = self._optimizer.optimize(plan)
        remaining = None if deadline is None else deadline - time.perf_counter()
        estimate = None if remaining is None else self.qos_tracker.estimate()
        if estimate is not None and estimate > remaining:
            # Shed now rather than burn a slot for nothing.
            with self._stats_lock:
                self.stats.shed_unmeetable += 1
            with span("qos.decision") as sp:
                sp.set(action="shed", estimate_s=estimate, remaining_s=remaining)
            raise DeadlineExceededError(
                f"estimated execution {estimate:.3g}s exceeds the "
                f"{remaining:.3g}s left before the deadline"
            )
        # Singleflight: an identical query already executing means this
        # one just waits for that result — the result cache cannot catch
        # duplicates that arrive mid-execution.
        with self._singleflight_lock:
            slot = self._inflight_results.get(key)
            owner = slot is None
            if owner:
                slot = self._inflight_results[key] = _Flight()
            elif slot.landed is None:
                slot.landed = threading.Event()
        if not owner:
            with span("singleflight.wait"):
                slot.landed.wait()
                if slot.error is not None:
                    raise slot.error  # the owner's error
            with self._stats_lock:
                self.stats.singleflight_hits += 1
            return slot.result, False

        # Engine runs already retry at morsel granularity; this outer layer
        # covers transient faults raised *outside* an engine run — kernel
        # calls made inline on this thread, store builds, the
        # ``service.dispatch`` injection site itself.  Queries are pure, so
        # whole-query re-execution is as bit-safe as morsel re-execution;
        # the deadline bounds it and the query scope's budget, shared with
        # every engine run, caps the total.
        def attempt() -> Table:
            maybe_inject("service.dispatch")
            return self._execute(optimized)

        retry = self.engine.executor.retry_policy.bind(
            deadline=deadline, budget=current_scope().retry_budget()
        )
        try:
            exec_start = time.perf_counter()
            result = retry.call(attempt)
            exec_seconds = time.perf_counter() - exec_start
            self.qos_tracker.observe(exec_seconds)
            with span("cache.store", cost_s=exec_seconds):
                self.results.store(key, result)
            slot.result = result
        except BaseException as exc:
            # Waiters still get an outcome — for an interrupt a clean
            # service error, not the interpreter-level interrupt, which
            # belongs to the thread that received it.
            slot.error = (
                exc if isinstance(exc, Exception) else ServiceError("execution interrupted")
            )
            raise
        finally:
            with self._singleflight_lock:
                del self._inflight_results[key]
                landed = slot.landed
            if landed is not None:
                landed.set()
        return result, False

    def _execute(self, optimized) -> Table:
        request = None
        if self.coalescer is not None:
            request = SharedScanRequest.of(optimized, self.engine.embed_store_for)
        if request is not None:
            with self._stats_lock:
                self.stats.coalesced += 1
            with span("execute", mode="coalesced"):
                return self.coalescer.submit(request)
        with self._stats_lock:
            self.stats.direct += 1
        report = ExecutionReport()
        with span("execute") as sp:
            result = execute(optimized, self.engine, report=report)
            sp.set(mode="direct", strategies=report.strategies, fallbacks=len(report.fallbacks))
        return result

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_table(self, name: str) -> int:
        """Eagerly drop cached results referencing ``name``."""
        return self.results.invalidate_table(name)

    def stats_snapshot(self) -> dict:
        """One merged dict of every layer's counters.

        ``ServiceStats.shed`` is not listed here: it renders only in the
        ``repro_queries_total`` outcomes (:meth:`metrics`).
        """
        return self._snapshot()[0]

    def _snapshot(self) -> tuple[dict, dict]:
        """:meth:`stats_snapshot` plus the ``repro_queries_total`` outcomes,
        the service's counters all read in one short hold of
        ``_stats_lock`` (taken after admission is read, released before any
        other layer is).  Admission owns the counts of sheds before admission
        and of rejections; the outcomes and ``qos.shed_expired`` read them
        from it."""
        admission = self.admission.stats_snapshot()
        with self._stats_lock:
            stats = self.stats
            service = {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "failed": stats.failed,
                "coalesced": stats.coalesced,
                "direct": stats.direct,
                "result_cache_hits": stats.result_cache_hits,
                "singleflight_hits": stats.singleflight_hits,
            }
            outcomes = {
                "completed": stats.completed,
                "failed": stats.failed - stats.shed,
                "shed": stats.shed + admission["deadline_shed"],
                "rejected": admission["rejected"],
            }
            qos = self._qos(admission)
        qos["exec_estimates"] = self.qos_tracker.snapshot()
        # Every component snapshot below is taken under that component's
        # own lock (``stats_snapshot`` / ``EngineStats.snapshot``), so
        # each block is internally consistent even while queries run.
        snapshot = {
            "service": service,
            "qos": qos,
            "admission": admission,
            "result_cache": self.results.stats_snapshot(),
        }
        if self.coalescer is not None:
            snapshot["coalescer"] = self.coalescer.stats_snapshot()
        if self.shard_pool is not None:
            snapshot["shard"] = self.shard_pool.stats_snapshot()
        snapshot["engine"] = self.engine.executor.stats.snapshot()
        return snapshot, outcomes

    def _qos(self, admission: dict) -> dict:
        """The ``qos`` block; called under ``_stats_lock``."""
        stats = self.stats
        return {
            "with_deadline": stats.with_deadline,
            "shed_expired": admission["deadline_shed"],
            "shed_unmeetable": stats.shed_unmeetable,
            "deadline_met": stats.deadline_met,
            "deadline_missed": stats.deadline_missed,
        }

    def health(self) -> ServiceHealth:
        """One coherent reliability snapshot of the running service.

        ``status`` is ``"degraded"`` (not an error — the service still
        serves) whenever a circuit breaker of this service's engine is
        routing around a failing access path or a shard worker process
        has died or stalled; breaker, retry, fault-injection, QoS, service
        and shard counters come along so the cause is visible in the same
        picture.
        """
        return self._health(self.admission.stats_snapshot())

    def _health(self, admission: dict) -> ServiceHealth:
        """:meth:`health` over an admission snapshot already read, so a
        scrape reads admission once."""
        registry = self.engine.breakers
        open_breakers = registry.open_count()
        injector = active_injector()
        with self._stats_lock:
            service = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
            }
            qos = self._qos(admission)
        shard = (
            self.shard_pool.worker_health()
            if self.shard_pool is not None
            else {}
        )
        status = (
            "ok"
            if open_breakers == 0
            and shard.get("worker_deaths", 0) == 0
            and shard.get("stalls", 0) == 0
            else "degraded"
        )
        return ServiceHealth(
            status=status,
            breakers=registry.snapshot(),
            open_breakers=open_breakers,
            retries=self.engine.executor.retry_policy.stats.snapshot(),
            faults=injector.stats.snapshot() if injector is not None else {},
            qos=qos,
            service=service,
            shard=shard,
        )

    # ------------------------------------------------------------------
    # Observability exports
    # ------------------------------------------------------------------
    def metrics(self) -> str:
        """Prometheus-style text exposition of this service's counters.

        Pull-based and per service: each call reads the snapshots below
        (:meth:`_metric_rows`) and renders them; nothing is counted twice.
        """
        rows, paths = self._metric_rows()
        return prometheus_text(rows, help={**paths, **METRIC_HELP})

    def _metric_rows(self) -> tuple[list, dict]:
        """Flatten what :meth:`metrics` exposes into ``(name, labels, value)``
        rows, plus the snapshot path each gauge family was read from.

        The sources: :meth:`stats_snapshot`, :meth:`health`'s retries,
        faults and per-path breakers, the tracer's counters,
        the recorder's snapshot and the slow-log length.
        """
        rows: list = []
        paths: dict = {}
        snapshot, outcomes = self._snapshot()
        rows += [
            ("repro_queries_total", {"outcome": outcome}, n)
            for outcome, n in outcomes.items()
        ]
        snapshot_rows(rows, paths, "repro", "stats_snapshot()", snapshot)
        health = self._health(snapshot["admission"])
        for prefix, field in (("retry", "retries"), ("fault", "faults")):
            snapshot_rows(
                rows, paths, f"repro_{prefix}", f"health().{field}",
                getattr(health, field),
            )
        rows.append(("repro_breakers_open_total", {}, float(health.open_breakers)))
        transitions = {"open": 0, "half_open": 0, "closed": 0}
        for path, snap in health.breakers.items():
            labels = {"path": path}
            rows.append(
                ("repro_breaker_open", labels, float(snap["state"] != "closed"))
            )
            rows.append(("repro_breaker_trips", labels, float(snap["trips"])))
            rows.append(("repro_breaker_closes", labels, float(snap["closes"])))
            transitions["open"] += snap["trips"]
            transitions["half_open"] += snap["half_opens"]
            transitions["closed"] += snap["closes"]
        rows += [
            ("repro_breaker_transitions_total", {"to": to}, n)
            for to, n in transitions.items()
            if n
        ]
        rows.append(("repro_query_latency_seconds", {}, self._latency))
        rows += [
            ("repro_obs_traces_retained", {}, float(len(self.tracer.ring))),
            ("repro_obs_traces_sampled", {}, float(self.tracer.sampled)),
            ("repro_obs_submissions_considered", {}, float(self.tracer.considered)),
            ("repro_slow_queries_retained", {}, float(len(self.slow_log))),
        ]
        if self.recorder is not None:
            snapshot_rows(
                rows, paths, "repro_capture", "recorder.stats_snapshot()",
                self.recorder.stats_snapshot(),
            )
        return rows, paths

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
