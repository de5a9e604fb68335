"""The traced run: per-layer metrics measured from outside the program.

A short untraced client phase (the workload's own loop, fewer operations)
gives the ``client.*``/``box.*`` numbers and the counter deltas that need
concurrency.  Then ``LADDER_OPS`` fresh operations are replayed one at a
time: for each, the rungs of the workload's ladder are called with that
operation's inputs, in an order rotated by the operation index so drift
falls on every rung alike.  A rung is a public function of one layer:

    joins:    vector kernel -> core operator -> engine -> QueryBuilder.execute
    serving:  scan kernel -> core.eselect -> QueryBuilder.execute
              -> QueryService.submit -> AsyncQueryService.submit -> 2-shard service

Spans (name, op, parent, start, end, box factor of their probe group) and
counter readings stay in memory, are written as JSONL when the replay ends,
and every metric is computed by reading that file back.  ``*_self_ms`` is a
rung minus the rung below it, so the self times of a ladder add up to its
top rung by construction; whether a rung really contains the one below it is
what a self time near zero or below it tells (README).  End-to-end metrics
never come from this run; the raw twins of the timing ones do
(``client.*_raw``), because they cannot carry a bound on this box.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
from repro import Col, ExecutionEngine, QuantizedRelation, QueryService, TopKCondition
from repro.core import (
    ThresholdCondition,
    eselect,
    index_join,
    quantized_eselect,
    quantized_tensor_join,
    resolve_batch_shape,
    tensor_join,
)
from repro.vector import (
    cosine_matrix_gemm,
    int8_dot,
    normalize_rows,
    normalize_vector,
    stable_dot_scores,
    top_k_per_row,
)

import harness
import workloads
from workloads import MODEL, VIEWS_CUT

#: Largest kernel-rung block (cells): bounds the int64/fp32 intermediates
#: of ``int8_dot`` and the GEMM rung when the policy asks for one block.
KERNEL_BLOCK_CELLS = 4_000_000


class SpanLog:
    """In-memory spans and counter readings of the replay."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int, parent: str | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, op, parent, start, time.perf_counter() - start)

    def add(self, name, op, parent, start: float, seconds: float) -> None:
        self.rows.append(
            {"name": name, "op": op, "parent": parent, "start": start,
             "end": start + seconds}
        )

    def count(self, name: str, op: int, value: float) -> None:
        self.rows.append({"counter": name, "op": op, "value": float(value)})

    def stamp(self, factor: float) -> None:
        """Record the replay's box factor on every span."""
        for row in self.rows:
            if "name" in row:
                row["factor"] = factor

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


class TraceFile:
    """The span file read back: medians at nominal box speed and counters."""

    def __init__(self, path: Path) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, list[float]] = {}
        with path.open() as handle:
            for line in handle:
                row = json.loads(line)
                if "counter" in row:
                    self.counters.setdefault(row["counter"], []).append(row["value"])
                else:
                    ms = 1e3 * (row["end"] - row["start"]) / row["factor"]
                    self.spans.setdefault(row["name"], []).append(ms)

    def ms(self, name: str) -> float:
        values = self.spans.get(name)
        return statistics.median(values) if values else 0.0

    def mean(self, name: str) -> float:
        values = self.counters.get(name)
        return statistics.fmean(values) if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.counters.get(name, ()))


def _rotated(rungs: list, n: int) -> list:
    shift = n % len(rungs)
    return rungs[shift:] + rungs[:shift]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _delta(after: dict, before: dict) -> dict:
    """Recursive numeric difference of two stats snapshots."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _kernel_rungs(log: SpanLog, op: int, left, right, k: int) -> None:
    """``vector.gemm`` and ``vector.topk`` over the operator's own blocking."""
    bl, br = resolve_batch_shape(len(left), len(right))
    bl = max(1, min(bl, KERNEL_BLOCK_CELLS // max(min(br, len(right)), 1)))
    gemm_s = topk_s = 0.0
    start = time.perf_counter()
    for l0 in range(0, len(left), bl):
        for r0 in range(0, len(right), br):
            t0 = time.perf_counter()
            scores = cosine_matrix_gemm(left[l0 : l0 + bl], right[r0 : r0 + br])
            t1 = time.perf_counter()
            top_k_per_row(scores, k)
            t2 = time.perf_counter()
            gemm_s += t1 - t0
            topk_s += t2 - t1
    log.add("vector.gemm", op, "core.tensor_join", start, gemm_s)
    log.add("vector.topk", op, "core.tensor_join", start + gemm_s, topk_s)
    log.count("vector.gemm_flop", op, 2.0 * len(left) * len(right) * left.shape[1])


def _join_counters(log: SpanLog, op: int, report) -> None:
    stats = report.join_stats[-1]
    log.count("core.sim_evals", op, stats.similarity_evaluations)
    log.count("core.pairs", op, stats.pairs_emitted)
    log.count("core.peak_buffer_mb", op, stats.peak_buffer_elements * 4 / 2**20)


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------


class _Replay:
    """One workload's ladder over the fresh operations.

    Fresh operations come in groups between two probe readings:
    ``GROUP_TRACED`` are replayed rung by rung, then ``GROUP_UNTRACED`` run
    only the top rung with no span around it, so both kinds meet the same
    drift (box speed, and the embed-once store filling up).  The replay's
    one box factor (median of its readings) brings every span to nominal
    box speed.
    """

    #: Span names whose medians add up to the workload's top rung.
    top: tuple[str, ...] = ()

    def __init__(self, workload, log: SpanLog, first_fresh: int) -> None:
        self.w = workload
        self.log = log
        self.first_fresh = first_fresh

    def prepare(self) -> None:
        """Build what the rungs need that the workload's set-up does not."""

    def op(self, n: int, fresh: int) -> None:
        """Replay traced operation ``n`` on fresh input ``fresh``."""
        raise NotImplementedError

    def untraced_top(self, fresh: int) -> float:
        """Seconds of the top rung on fresh input ``fresh``, without spans."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what :meth:`prepare` started."""

    def run(self, probes: harness.Probes) -> list[float]:
        """Replay every group; returns the untraced top-rung times (ms at
        nominal box speed)."""
        bare: list[float] = []
        per_group = workloads.GROUP_TRACED + workloads.GROUP_UNTRACED

        def group(g: int) -> None:
            fresh = g * per_group
            for j in range(workloads.GROUP_TRACED):
                self.op(g * workloads.GROUP_TRACED + j, fresh + j)
            for j in range(workloads.GROUP_UNTRACED):
                bare.append(self.untraced_top(fresh + workloads.GROUP_TRACED + j))

        self.prepare()
        try:
            groups = range(workloads.LADDER_OPS // workloads.GROUP_TRACED)
            phase = harness.run_phase(
                probes, [lambda g=g: group(g) for g in groups]
            )
        finally:
            self.close()
        self.log.stamp(phase.factor)
        return [1e3 * s / phase.factor for s in bare]


class StringsReplay(_Replay):
    top = ("relational.register", "query.execute")

    def prepare(self):
        self.catalog_vecs = self.w.model.embed_batch(self.w.words)

    def op(self, n, fresh):
        w, log = self.w, self.log
        i = self.first_fresh + fresh
        table, batch = w.tables[i], w.batch_of(i)
        store = w.engine.embed_store_for(MODEL)
        known, calls = len(store), w.model.usage.calls
        # The top rung runs first: it must meet the embed-once store in the
        # state the workload leaves it in, not after the rungs below.
        with log.span("relational.register", n, "op"):
            w.catalog.register("feed", table, replace=True)
        query = w.query()
        with log.span("query.execute", n, "op"):
            out = query.execute()
        looked_up = query.last_report.join_stats[-1].n_left
        log.count("embedding.model_calls", n, w.model.usage.calls - calls)
        log.count("embedding.new_strings", n, len(store) - known)
        log.count("embedding.looked_up", n, looked_up)
        log.count("embedding.feed_rows", n, table.num_rows)
        log.count("embedding.match_accuracy", n, w.match_accuracy(out, batch))
        _join_counters(log, n, query.last_report)

        kept = w.engine.query("feed").where(Col("views") > VIEWS_CUT)
        texts = out.array("text").tolist()
        distinct = sorted(set(texts))
        vectors = {}

        def filter_():
            with log.span("relational.filter", n, "query.execute"):
                kept.execute()

        def embed():
            with log.span("embedding.embed", n, "query.execute"):
                embedded = w.model.embed_batch(distinct)
            vectors.update(zip(distinct, embedded))
            log.count("embedding.embed_strings", n, len(distinct))

        def optimize():
            with log.span("algebra.optimize", n, "query.execute"):
                query.optimized_plan()

        for rung in _rotated([filter_, embed, optimize], n):
            rung()
        left = np.stack([vectors[t] for t in texts])

        def kernels():
            _kernel_rungs(log, n, left, self.catalog_vecs, 1)

        def core():
            with log.span("core.tensor_join", n, "query.execute"):
                tensor_join(left, self.catalog_vecs, TopKCondition(1))

        for rung in _rotated([kernels, core], n):
            rung()

    def untraced_top(self, fresh):
        start = time.perf_counter()
        self.w.operation(self.w.tables[self.first_fresh + fresh])
        return time.perf_counter() - start


class VectorsReplay(_Replay):
    top = ("query.execute",)

    def prepare(self):
        w, s = self.w, self.w.sizes
        self.cond = TopKCondition(s["top_k"])
        for n in range(3):
            with self.log.span("vector.quant.encode", n, "core.quantized_join"):
                self.store = QuantizedRelation.build(w.right, "int8")
        # The two-worker engine cuts the left side into morsels; left to
        # themselves the serial operator and a one-worker engine take it as
        # one 160 MB score block, and a call then costs 0.35-3.4 s depending
        # on whether the process still holds the pages (README, baseline
        # fact 2).  The rungs under the engine get the engine's left edge, so
        # each rung does the work of the one above it and the difference
        # between them is the layer's, not the allocator's.
        self.engine_2t = ExecutionEngine(n_threads=2)
        self.left_edge = max(len(m) for m in self.engine_2t.morsels_for(s["n_left"]))
        self.engine_1t = ExecutionEngine(n_threads=1, morsel_rows=self.left_edge)

    def _execute(self, span: str, n: int, shape: str, left: int, **kw):
        query = self.w.query(shape, left, **kw)
        with self.log.span(span, n, "op"):
            query.execute()
        return query

    def op(self, n, fresh):
        w = self.w
        shape, left_id = w.shape_of(n), w.left_of(n)
        span = "query.execute" if shape == "topk_scan" else f"query.execute.{shape}"

        def execute():
            query = self._execute(span, n, shape, left_id)
            if shape == "topk_scan":
                _join_counters(self.log, n, query.last_report)

        rungs = [execute]
        # The rungs under the top one take 0.2-0.7 s each: two rounds in
        # three replay only the top rung, so a traced run stays inside its time.
        if n // 4 % 3 == 0:
            rungs += self._lower_rungs(n, shape, left_id)
        for rung in _rotated(rungs, n // 12):
            rung()

    def _lower_rungs(self, n: int, shape: str, left_id: int) -> list:
        w, log = self.w, self.log
        left, right = w.lefts[left_id], w.right
        if shape == "topk_scan":
            def core():
                with log.span("core.tensor_join", n, "engine.join"):
                    tensor_join(left, right, self.cond, batch_left=self.left_edge)

            def engine_2t():
                with log.span("engine.join", n, "query.execute"):
                    repro.ejoin(left, right, self.cond, strategy="parallel-tensor",
                                engine=self.engine_2t)

            def engine_1t():
                with log.span("engine.join_1t", n, "query.execute"):
                    repro.ejoin(left, right, self.cond, strategy="parallel-tensor",
                                engine=self.engine_1t)

            def optimize():
                query = w.query(shape, left_id)
                with log.span("algebra.optimize", n, "query.execute"):
                    query.optimized_plan()

            return [
                lambda: _kernel_rungs(log, n, left, right, self.cond.k),
                core, engine_1t, engine_2t, optimize,
            ]
        if shape == "topk_int8":
            def int8_scan():
                codes = self.store.quantizer.encode(normalize_rows(left))
                step = max(1, KERNEL_BLOCK_CELLS // len(right))
                start = time.perf_counter()
                for l0 in range(0, len(codes), step):
                    int8_dot(codes[l0 : l0 + step], self.store.codes)
                log.add("vector.quant.int8_scan", n, "core.quantized_join", start,
                        time.perf_counter() - start)

            def quantized():
                with log.span("core.quantized_join", n, "query.execute.topk_int8"):
                    quantized_tensor_join(left, self.store, self.cond)

            return [int8_scan, quantized]
        if shape == "topk_auto":  # the planner's pick against each forced path
            def probe():
                with log.span("index.probe", n, "core.index_join"):
                    w.index.search_batch(left, self.cond.k)

            def indexed():
                with log.span("core.index_join", n, "query.execute.topk_auto"):
                    index_join(left, w.index, self.cond)

            return [
                probe, indexed,
                lambda: self._execute("query.execute.forced_tensor", n, shape,
                                      left_id, strategy="tensor"),
                lambda: self._execute("query.execute.forced_index", n, shape,
                                      left_id, strategy="index"),
            ]
        return []  # range_scan: the query is the only public rung

    def untraced_top(self, fresh):
        query = self.w.query("topk_scan", fresh % len(self.w.lefts))
        start = time.perf_counter()
        query.execute()
        return time.perf_counter() - start


class ServeReplay(_Replay):
    top = ("service.async",)

    #: Every this many sampled operations the corpus is registered again and
    #: the next request is the first after the write (``service.refill``).
    REFILL_EVERY = 4

    def prepare(self):
        w, log = self.w, self.log
        self.normalized = normalize_rows(w.corpus)
        with log.span("vector.quant.encode", 0, "core.quantized_eselect"):
            self.store = QuantizedRelation.build(w.corpus, "int8")
        with log.span("shard.spawn", 0, "shard.submit"):
            self.sharded = QueryService(w.engine, shard_procs=2)
            # The first request publishes the column into shared memory.
            self.sharded.submit(w.builder(w.fresh_vector(0), dict(top_k=1)))

    def close(self):
        self.sharded.shutdown()

    def run(self, probes):
        # One event loop for the whole replay: the async rung is awaited
        # inside it, so no loop start-up lands in ``service.async``.
        self.loop = asyncio.new_event_loop()
        try:
            return super().run(probes)
        finally:
            self.loop.close()

    def op(self, n, fresh):
        self.loop.run_until_complete(self._op(n, fresh))

    def untraced_top(self, fresh):
        return self.loop.run_until_complete(self._untraced_top(fresh))

    async def _untraced_top(self, fresh):
        query = self.w.builder(self.w.fresh_vector(3 * fresh), self.w.terms_of(fresh))
        start = time.perf_counter()
        await self.w.front.submit(query)
        return time.perf_counter() - start

    async def _op(self, n, fresh):
        w, log = self.w, self.log
        terms = w.terms_of(n)
        q1, q2, q3 = (w.fresh_vector(3 * fresh + j) for j in range(3))
        unit = normalize_vector(q1)
        if "top_k" in terms:
            cond = TopKCondition(terms["top_k"])
        else:
            cond = ThresholdCondition(terms["threshold"])
        state = {}

        async def scan():
            # eselect runs this prescreen inline; no public function wraps
            # it, so the benchmark issues the same BLAS call itself.
            with log.span("vector.scan", n, "core.eselect"):
                state["approx"] = self.normalized @ unit
            log.count("vector.scan_bytes", n, self.normalized.nbytes)

        async def rescore():
            approx = state.get("approx")
            if approx is None:
                approx = self.normalized @ unit
            rows = np.argpartition(-approx, 42)[:42]
            with log.span("vector.rescore", n, "core.eselect"):
                stable_dot_scores(self.normalized[rows], unit)

        async def core():
            with log.span("core.eselect", n, "query.execute"):
                eselect(self.normalized, q1, cond, assume_normalized=True)

        async def quantized():
            with log.span("core.quantized_eselect", n, "query.execute"):
                quantized_eselect(self.store, q1, cond)

        async def optimize():
            query = w.builder(q1, terms)
            with log.span("algebra.optimize", n, "query.execute"):
                query.optimized_plan()

        async def execute():
            with log.span("query.execute", n, "service.submit"):
                w.builder(q1, terms).execute()

        async def submit():
            with log.span("service.submit", n, "service.async"):
                w.service.submit(w.builder(q1, terms))
            with log.span("service.hit", n, "service.async"):
                w.service.submit(w.builder(q1, terms))
            with log.span("obs.explain_hit", n, "service.async"):
                w.service.submit(w.builder(q1, terms), explain_analyze=True)

        async def front():
            with log.span("service.async", n, "op"):
                await w.front.submit(w.builder(q2, terms))

        async def sharded():
            with log.span("shard.submit", n, "op"):
                self.sharded.submit(w.builder(q1, terms))

        async def refill():
            if n % self.REFILL_EVERY:
                return
            with log.span("relational.register", n, "op"):
                w.write()
            with log.span("service.refill", n, "op"):
                w.service.submit(w.builder(q3, terms))

        rungs = [scan, rescore, core, quantized, optimize, execute, submit, front,
                 sharded, refill]
        for rung in _rotated(rungs, n):
            await rung()


REPLAYS = {
    "ejoin_strings": StringsReplay,
    "ejoin_vectors": VectorsReplay,
    "serve_scan": ServeReplay,
    "serve_hot": ServeReplay,
}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def client_ops(workload) -> int:
    """Operations of the traced run's client phase: about a fifth of the
    timed count, in whole rounds of the workload's shapes per slice."""
    unit = len(workload.shapes) * harness.TRACED_SLICES
    return max(1, workload.n_ops // 5 // unit) * unit


def trace(workload, probes: harness.Probes, trace_out: Path) -> tuple[dict, dict]:
    """Client phase + ladder replay; returns ``(metrics, details)``.

    ``metrics`` maps every per-layer metric name to its value; ``details``
    carries sample counts and the ladder sums for the record.
    """
    w = workload
    n_client = client_ops(w)

    def snapshots():
        service = getattr(w, "service", None)
        return (
            w.engine.executor.stats.snapshot(),
            service.stats_snapshot() if service else {},
        )

    engine0, service0 = snapshots()
    phase = harness.run_slices(probes, n_client, harness.TRACED_SLICES, w.run_ops)
    engine1, service1 = snapshots()
    client = harness.client_stats(phase)

    log = SpanLog()
    replay = REPLAYS[w.name](w, log, n_client)
    untraced_ms = replay.run(probes)
    for key, value in _delta(engine1, engine0).items():
        log.count(f"engine.{key}", -1, value)
    for section, values in _delta(service1, service0).items():
        for key, value in values.items():
            if not isinstance(value, dict):
                log.count(f"svc.{section}.{key}", -1, value)
    log.count("client.ops", -1, client["ok"])
    if hasattr(w, "index_build_s"):
        log.count("index.build_s", -1, w.index_build_s)
    log.write(trace_out)

    metrics = layer_metrics(TraceFile(trace_out), replay.top, untraced_ms)
    box = client["box"]
    metrics.update(
        {
            "client.op_ms_p95": client["op_ms_p95"],
            "client.op_ms_p50_raw": client["op_ms_p50_raw"],
            "client.ops_per_s_raw": client["ops_per_s_raw"],
            "client.cpu_ms_per_op": client["cpu_ms_per_op"],
            "client.slice_spread": client["slice_spread"],
            "box.gemm_ms": box["gemm_ms"],
            "box.py_ms": box["py_ms"],
            "box.mem_ms": box["mem_ms"],
            "box.factor": box["factor"],
            "box.disturbed_share": box["disturbed_share"],
        }
    )
    details = {
        "client": client,
        "spans": len(log.rows),
        "ladder_ops": workloads.LADDER_OPS,
        "untraced_top_ms": untraced_ms,
        "trace_out": str(trace_out),
    }
    return metrics, details


def layer_metrics(tf: TraceFile, top: tuple[str, ...], untraced_ms: list[float]) -> dict:
    """Every per-layer metric from the span file (0 where a layer idled)."""
    ms, mean, total = tf.ms, tf.mean, tf.total
    ops = total("client.ops")
    kernel = ms("vector.gemm") + ms("vector.topk")
    tensor = ms("core.tensor_join")
    top_ms = sum(ms(name) for name in top)
    execute = ms("query.execute")
    # The rung under QueryBuilder.execute: the engine on the vector joins,
    # the core operator elsewhere.
    below_execute = ms("engine.join") or tensor or ms("core.eselect")
    forced = [
        v
        for v in (
            ms("query.execute.forced_tensor"), ms("query.execute.forced_index"),
            ms("query.execute.topk_int8"), execute,
        )
        if v
    ]
    auto = ms("query.execute.topk_auto")
    submitted = total("svc.service.submitted")
    plan_lookups = total("svc.plan_cache.hits") + total("svc.plan_cache.misses")
    hit = ms("service.hit")
    return {
        "relational.filter_ms": ms("relational.filter"),
        "relational.register_ms": ms("relational.register"),
        "embedding.embed_ms": ms("embedding.embed"),
        "embedding.us_per_string": 1e3
        * _ratio(ms("embedding.embed"), mean("embedding.embed_strings")),
        "embedding.model_calls_per_op": mean("embedding.model_calls"),
        "embedding.store_hit_share": (
            1.0 - _ratio(total("embedding.new_strings"), total("embedding.looked_up"))
            if total("embedding.looked_up")
            else 0.0
        ),
        "embedding.embedded_share": _ratio(
            total("embedding.looked_up"), total("embedding.feed_rows")
        ),
        "embedding.match_accuracy": mean("embedding.match_accuracy"),
        "vector.gemm_ms": ms("vector.gemm"),
        "vector.gemm_gflops": _ratio(
            mean("vector.gemm_flop"), ms("vector.gemm") * 1e6
        ),
        "vector.topk_ms": ms("vector.topk"),
        "vector.scan_ms": ms("vector.scan"),
        "vector.scan_gbps": _ratio(mean("vector.scan_bytes"), ms("vector.scan") * 1e6),
        "vector.rescore_ms": ms("vector.rescore"),
        "vector.quant.int8_scan_ms": ms("vector.quant.int8_scan"),
        "vector.quant.encode_ms": ms("vector.quant.encode"),
        "index.build_s": total("index.build_s"),
        "index.probe_ms": ms("index.probe"),
        "core.tensor_join_ms": tensor,
        "core.tensor_join_self_ms": tensor - kernel if tensor else 0.0,
        "core.quantized_join_ms": ms("core.quantized_join"),
        "core.index_join_ms": ms("core.index_join"),
        "core.eselect_ms": ms("core.eselect"),
        "core.eselect_self_ms": ms("core.eselect") - ms("vector.scan"),
        "core.quantized_eselect_ms": ms("core.quantized_eselect"),
        "core.sim_evals_per_pair": _ratio(total("core.sim_evals"), total("core.pairs")),
        "core.peak_buffer_mb": mean("core.peak_buffer_mb"),
        "engine.join_ms": ms("engine.join"),
        "engine.speedup_2t": _ratio(ms("engine.join_1t"), ms("engine.join")),
        "engine.overhead_ms": (
            ms("engine.join_1t") - tensor if ms("engine.join_1t") else 0.0
        ),
        "engine.morsels_per_op": _ratio(total("engine.morsels_dispatched"), ops),
        "engine.steals_per_op": _ratio(total("engine.steals"), ops),
        "engine.retries_per_op": _ratio(total("engine.retries"), ops),
        "algebra.optimize_ms": ms("algebra.optimize"),
        "algebra.plan_self_ms": execute - below_execute,
        "algebra.planner_regret": _ratio(auto, min(forced)) if auto else 0.0,
        "query.execute_ms": execute,
        "service.submit_ms": ms("service.submit"),
        "service.submit_self_ms": ms("service.submit") - execute
        if ms("service.submit")
        else 0.0,
        "service.async_self_ms": ms("service.async") - ms("service.submit"),
        "service.hit_ms": hit,
        "service.refill_ms": ms("service.refill"),
        "service.result_cache_hit_share": _ratio(
            total("svc.service.result_cache_hits"), submitted
        ),
        "service.plan_cache_hit_share": _ratio(
            total("svc.plan_cache.hits"), plan_lookups
        ),
        "service.singleflight_share": _ratio(
            total("svc.service.singleflight_hits"), submitted
        ),
        "service.coalesced_share": _ratio(total("svc.service.coalesced"), submitted),
        "service.coalesce_group_mean": _ratio(
            total("svc.coalescer.coalesced_queries"), total("svc.coalescer.groups")
        ),
        "service.rejected_share": _ratio(total("svc.admission.rejected"), submitted),
        "shard.spawn_s": ms("shard.spawn") / 1e3,
        "shard.submit_ms": ms("shard.submit"),
        "shard.self_ms": ms("shard.submit") - ms("service.submit")
        if ms("shard.submit")
        else 0.0,
        "obs.explain_overhead_share": _ratio(ms("obs.explain_hit"), hit) - 1.0
        if hit
        else 0.0,
        "trace.overhead_share": _ratio(top_ms, statistics.median(untraced_ms)) - 1.0,
    }


def ladder_sums(metrics: dict, workload_name: str) -> dict:
    """Self times of the workload's ladder against its top rung."""
    m = metrics
    if workload_name.startswith("serve"):
        rungs = {
            "vector.scan_ms": m["vector.scan_ms"],
            "core.eselect_self_ms": m["core.eselect_self_ms"],
            "algebra.plan_self_ms": m["algebra.plan_self_ms"],
            "service.submit_self_ms": m["service.submit_self_ms"],
            "service.async_self_ms": m["service.async_self_ms"],
        }
        top = m["service.submit_ms"] + m["service.async_self_ms"]
    else:
        rungs = {
            "vector.gemm_ms+vector.topk_ms": m["vector.gemm_ms"] + m["vector.topk_ms"],
            "core.tensor_join_self_ms": m["core.tensor_join_self_ms"],
            "engine.self_ms": (
                m["engine.join_ms"] - m["core.tensor_join_ms"]
                if m["engine.join_ms"]
                else 0.0
            ),
            "algebra.plan_self_ms": m["algebra.plan_self_ms"],
        }
        top = m["query.execute_ms"]
    return {"rungs": rungs, "sum": sum(rungs.values()), "top_rung_ms": top}
