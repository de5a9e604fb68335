"""Global configuration for deterministic, reproducible runs.

The paper runs all synthetic experiments with a fixed random number generator
seed (Section VI, Hardware Setup).  We centralise seeding here: every module
that needs randomness asks for an :func:`rng` derived from the global seed
and a per-purpose stream name, so adding a new experiment never perturbs the
random streams of existing ones.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Default global seed, matching the "same random number generator seed for
#: reproducibility" setup in the paper's evaluation.
DEFAULT_SEED = 42


@dataclass
class ReproConfig:
    """Tunable engine defaults.

    Attributes:
        seed: Global base seed for all random streams.
        default_dim: Default embedding dimensionality (the paper uses 100-D
            vectors for the end-to-end experiments).
        default_threads: Worker count for data-parallel operators.  ``None``
            means "use all available CPUs".
        default_batch_rows: Default mini-batch edge (in tuples) for the
            tensor join when no explicit buffer budget is given.
        default_morsel_rows: Upper bound on morsel size (tuples) handed to
            engine workers; small enough that work stealing balances skew,
            large enough that the per-morsel BLAS call dominates dispatch.
        default_buffer_budget_bytes: Process-wide Figure 7 buffer budget for
            dense join intermediates.  ``None`` leaves batch shapes to the
            operator defaults.
        work_stealing: Whether engine workers steal queued morsels from
            each other (disable to get static partitioning).
        default_precision: Operand precision scan joins run at when the
            caller does not pin one: ``fp32`` (exact), ``fp16`` (half-
            precision storage), or the quantized access paths ``int8`` /
            ``pq`` (approximate scan + exact re-rank).
        default_min_recall: Accuracy floor the optimizer must respect
            before it may substitute a quantized access path.
        default_rerank_multiple: Top-k candidate multiple for quantized
            scans — each probe re-ranks ``multiple * k`` candidates in
            fp32.
        service_max_inflight: Admission-control bound on concurrently
            executing queries in a :class:`~repro.service.QueryService`.
        service_admission_timeout_s: How long an over-limit submission
            waits for an execution slot before being rejected with
            backpressure.
        service_coalesce_max_batch: Upper bound on queries fused into one
            shared scan.
        service_plan_cache_size: Entries in the service's logical-plan
            fingerprint -> optimized-plan cache.
        service_result_cache_size: Entries in the semantic result cache.
        service_result_cache_ttl_s: Result-cache entry time-to-live.
        service_near_dup_threshold: Cosine similarity above which a cached
            result is served for a *different* query vector (approximate
            semantic hit).  ``None`` (default) serves exact-key hits only,
            keeping service results bit-identical to serial execution.
        qos_workers: Dispatcher threads in an
            :class:`~repro.service.AsyncQueryService` (how many queries
            it executes concurrently; admission still bounds the total).
            ``None`` means "same as ``service_max_inflight``".
        qos_ewma_alpha: Weight of each new sample in the QoS layer's
            execution-time EWMAs.
        qos_deadline_safety: Multiplier padded onto the execution-time
            estimate before the shed/degrade decision — raise it to shed
            earlier (more conservative deadlines), lower it toward 1.0
            to gamble on meeting tight ones.
        qos_min_estimate_samples: Executions observed per mode before
            the tracker's estimate is trusted for shedding; a cold
            service never sheds on estimates.
        qos_cache_tinylfu: Enable TinyLFU cost-aware admission on the
            service's semantic result cache.
        qos_default_min_recall: Recall floor applied to QoS submissions
            that do not state one.  ``None`` (default) means queries
            without an explicit floor are never degraded.
        fault_rate: Probability that any one fault-injection site hit
            raises/injects a fault (chaos testing).  ``0.0`` (default)
            disables injection entirely — the injector is never even
            installed, so production paths pay one ``None`` check.
        fault_seed: Seed for the deterministic injection schedule.
            ``None`` derives a stream seed from the global ``seed``, so
            chaos runs are reproducible by default.
        fault_sites: Comma-separated site names injection is limited to
            (e.g. ``"engine.worker,kernel.gemm"``); empty means every
            site.
        fault_kinds: Comma-separated fault kinds to draw from:
            ``transient``, ``permanent``, ``latency``, ``hang``,
            ``kill``.
        fault_latency_ms: Injected latency-spike duration.
        fault_hang_s: How long an injected ``hang`` blocks its worker
            (the watchdog is expected to route around it well before
            this elapses).
        fault_max: Hard cap on total injected faults per process;
            ``None`` means unbounded.
        retry_max_attempts: Attempts (1 initial + retries) a transient
            failure is given at morsel/dispatch granularity.
        retry_base_ms: Base backoff before the first retry; subsequent
            waits use decorrelated jitter from this base.
        retry_cap_ms: Upper bound on any single backoff sleep.
        retry_budget: Total retries one scheduler run (resp. one service
            dispatch) may spend across all its morsels — bounds the
            worst-case added latency under a fault storm.
        breaker_threshold: Consecutive access-path failures that trip a
            circuit breaker open.
        breaker_cooldown_s: Seconds an open breaker waits before
            admitting one half-open trial.
        watchdog_stall_s: Heartbeat age after which the engine watchdog
            declares a worker stuck, re-enqueues its in-flight morsel,
            and respawns a replacement thread.  ``0`` disables the
            watchdog (the scheduler then blocks on plain joins).
        obs_enabled: Master switch for background trace sampling in the
            observability layer.  Disabling only stops *sampled* traces;
            ``explain_analyze=True`` submissions always trace, and the
            metrics registry always counts.
        obs_sample_rate: Fraction of submissions traced when no explicit
            trace was requested, decided by a deterministic counter-hash
            schedule (same idea as fault injection): ``0.0`` samples
            nothing, ``1.0`` traces everything.
        obs_ring_size: Completed traces retained in the tracer's bounded
            ring buffer (oldest evicted first).
        obs_sites: Comma-separated span-site prefixes to record (e.g.
            ``"admission,coalesce,engine"``); empty records every site.
            Spans are named ``site.detail``, so gating is by the part
            before the first dot.
        obs_capture_path: Workload-capture (flight recorder) JSONL file.
            Empty (the default) disables capture entirely — the service
            then pays one ``None`` check per submission.
        obs_capture_max_mb: Size bound on the capture file; exceeding it
            rotates (``path`` -> ``path.1`` -> ...).
        obs_capture_keep: Rotated capture files retained; older ones are
            deleted.
        obs_http_port: TCP port for the live introspection endpoint
            (``/metrics``, ``/health``, ``/traces``, ``/slow``).  ``None``
            (the default) starts no server; ``0`` binds an ephemeral
            port.
        obs_slow_k: Slowest retired traces retained in the slow-query
            log, each with its critical-path breakdown.
        shard_procs: Persistent shard worker *processes* backing the
            coalesced shared scan.  ``0`` (the default) disables sharded
            execution entirely — everything runs in-process exactly as
            before.  With ``N > 0`` the service publishes column stores
            into shared memory, partitions each base table into ``N``
            contiguous row ranges, and fans the stacked scan out across
            the pool; per-query heaps merge at the front door, so results
            stay bit-identical to serial.
        shard_min_rows: Smallest table (rows) worth fanning out across
            shard processes; below it the per-scan dispatch/IPC overhead
            dominates and the planner's ``shard_fanout`` term keeps the
            scan in-process.
        shard_start_method: ``multiprocessing`` start method for shard
            workers.  ``"spawn"`` (the default) is the only method that
            is safe regardless of the parent's thread activity; forks of
            a threaded service deadlock on inherited locks.
        shard_stall_s: Seconds without a heartbeat or reply before the
            pool's watchdog declares a shard worker stuck and respawns
            it (same semantics as the in-process engine watchdog).
        shard_max_respawns: Worker respawns tolerated per pool before a
            scan gives up sharding and falls back to the in-process
            path.
    """

    seed: int = DEFAULT_SEED
    default_dim: int = 100
    default_threads: int | None = None
    default_batch_rows: int = 1024
    default_morsel_rows: int = 1024
    default_buffer_budget_bytes: int | None = None
    work_stealing: bool = True
    default_precision: str = "fp32"
    default_min_recall: float = 0.95
    default_rerank_multiple: int = 4
    service_max_inflight: int = 64
    service_admission_timeout_s: float = 30.0
    service_coalesce_max_batch: int = 64
    service_plan_cache_size: int = 256
    service_result_cache_size: int = 512
    service_result_cache_ttl_s: float = 300.0
    service_near_dup_threshold: float | None = None
    qos_workers: int | None = None
    qos_ewma_alpha: float = 0.2
    qos_deadline_safety: float = 1.5
    qos_min_estimate_samples: int = 5
    qos_cache_tinylfu: bool = False
    qos_default_min_recall: float | None = None
    fault_rate: float = 0.0
    fault_seed: int | None = None
    fault_sites: str = ""
    fault_kinds: str = "transient"
    fault_latency_ms: float = 1.0
    fault_hang_s: float = 30.0
    fault_max: int | None = None
    retry_max_attempts: int = 3
    retry_base_ms: float = 1.0
    retry_cap_ms: float = 50.0
    retry_budget: int = 16
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    watchdog_stall_s: float = 5.0
    obs_enabled: bool = True
    obs_sample_rate: float = 0.01
    obs_ring_size: int = 256
    obs_sites: str = ""
    obs_capture_path: str = ""
    obs_capture_max_mb: float = 64.0
    obs_capture_keep: int = 1
    obs_http_port: int | None = None
    obs_slow_k: int = 32
    shard_procs: int = 0
    shard_min_rows: int = 16384
    shard_start_method: str = "spawn"
    shard_stall_s: float = 10.0
    shard_max_respawns: int = 2
    extra: dict = field(default_factory=dict)

    def stream_seed(self, name: str) -> int:
        """Derive a deterministic per-stream seed from the base seed."""
        return (self.seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % (2**32)

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh, deterministic generator for the named stream."""
        return np.random.default_rng(self.stream_seed(name))


def _env_number(name: str, parse):
    """Parse an optional numeric env var; warn and ignore malformed values
    (this runs at import time — a typo must not break ``import repro``)."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return parse(raw)
    except (ValueError, OverflowError):  # OverflowError: e.g. int(float("inf"))
        import warnings

        warnings.warn(
            f"ignoring malformed {name}={raw!r} (expected a number)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _config_from_env() -> ReproConfig:
    """Build the process-wide config, honouring ``REPRO_*`` overrides.

    The benchmark harness (``python -m repro.bench``) forwards its
    thread-count/budget knobs to the pytest subprocess through these
    variables, so figure runs exercise the engine at the requested scale.
    """
    config = ReproConfig()
    threads = _env_number("REPRO_THREADS", int)
    if threads is not None:
        config.default_threads = max(1, threads)
    morsel_rows = _env_number("REPRO_MORSEL_ROWS", int)
    if morsel_rows is not None:
        config.default_morsel_rows = max(1, morsel_rows)
    # Conversion and positivity both live inside the guarded parse so
    # "nan"/"inf"/zero/negative are rejected like any other malformed
    # value instead of crashing import or poisoning every tensor join.
    def _budget(raw: str) -> int:
        value = int(float(raw) * 2**20)
        if value < 1:
            raise ValueError("budget must be positive")
        return value

    budget_bytes = _env_number("REPRO_BUFFER_BUDGET_MB", _budget)
    if budget_bytes is not None:
        config.default_buffer_budget_bytes = budget_bytes
    precision = os.environ.get("REPRO_PRECISION", "")
    if precision:
        if precision in ("fp32", "fp16", "int8", "pq"):
            config.default_precision = precision
        else:
            import warnings

            warnings.warn(
                f"ignoring unknown REPRO_PRECISION={precision!r} "
                "(expected fp32|fp16|int8|pq)",
                RuntimeWarning,
                stacklevel=2,
            )
    rerank = _env_number("REPRO_RERANK_MULTIPLE", int)
    if rerank is not None:
        config.default_rerank_multiple = max(1, rerank)
    # Service knobs: the fig_service benchmark (and any deployment
    # wrapper) forwards concurrency/caching settings through these.
    inflight = _env_number("REPRO_SERVICE_MAX_INFLIGHT", int)
    if inflight is not None:
        config.service_max_inflight = max(1, inflight)
    coalesce_batch = _env_number("REPRO_SERVICE_COALESCE_MAX_BATCH", int)
    if coalesce_batch is not None:
        config.service_coalesce_max_batch = max(1, coalesce_batch)
    plan_cache = _env_number("REPRO_SERVICE_PLAN_CACHE", int)
    if plan_cache is not None:
        config.service_plan_cache_size = max(0, plan_cache)
    result_cache = _env_number("REPRO_SERVICE_RESULT_CACHE", int)
    if result_cache is not None:
        config.service_result_cache_size = max(0, result_cache)
    result_ttl = _env_number("REPRO_SERVICE_RESULT_TTL_S", float)
    if result_ttl is not None:
        config.service_result_cache_ttl_s = max(0.0, result_ttl)
    near_dup = _env_number("REPRO_SERVICE_NEARDUP", float)
    if near_dup is not None:
        config.service_near_dup_threshold = min(1.0, max(-1.0, near_dup))
    # Same convention as REPRO_BENCH_SMOKE: unset, empty, or "0" mean off.
    if os.environ.get("REPRO_NO_WORK_STEALING", "") not in ("", "0"):
        config.work_stealing = False
    # QoS knobs: deadline/priority-aware serving (repro.service QoS layer).
    qos_workers = _env_number("REPRO_QOS_WORKERS", int)
    if qos_workers is not None:
        config.qos_workers = max(1, qos_workers)
    alpha = _env_number("REPRO_QOS_EWMA_ALPHA", float)
    if alpha is not None and 0.0 < alpha <= 1.0:
        config.qos_ewma_alpha = alpha
    safety = _env_number("REPRO_QOS_DEADLINE_SAFETY", float)
    if safety is not None:
        config.qos_deadline_safety = max(1.0, safety)
    min_samples = _env_number("REPRO_QOS_MIN_SAMPLES", int)
    if min_samples is not None:
        config.qos_min_estimate_samples = max(1, min_samples)
    min_recall = _env_number("REPRO_QOS_MIN_RECALL", float)
    if min_recall is not None:
        config.qos_default_min_recall = min(1.0, max(0.0, min_recall))
    # Boolean knobs: an explicit value set; "0" means off, anything else on.
    tinylfu = os.environ.get("REPRO_QOS_CACHE_TINYLFU", "")
    if tinylfu:
        config.qos_cache_tinylfu = tinylfu != "0"
    # Reliability knobs: fault injection (chaos testing), retry/backoff,
    # circuit breakers, and the engine worker watchdog.
    fault_rate = _env_number("REPRO_FAULT_RATE", float)
    if fault_rate is not None:
        config.fault_rate = min(1.0, max(0.0, fault_rate))
    fault_seed = _env_number("REPRO_FAULT_SEED", int)
    if fault_seed is not None:
        config.fault_seed = fault_seed
    config.fault_sites = os.environ.get("REPRO_FAULT_SITES", config.fault_sites)
    config.fault_kinds = os.environ.get("REPRO_FAULT_KINDS", config.fault_kinds)
    fault_latency = _env_number("REPRO_FAULT_LATENCY_MS", float)
    if fault_latency is not None:
        config.fault_latency_ms = max(0.0, fault_latency)
    fault_hang = _env_number("REPRO_FAULT_HANG_S", float)
    if fault_hang is not None:
        config.fault_hang_s = max(0.0, fault_hang)
    fault_max = _env_number("REPRO_FAULT_MAX", int)
    if fault_max is not None:
        config.fault_max = max(0, fault_max)
    retry_attempts = _env_number("REPRO_RETRY_MAX_ATTEMPTS", int)
    if retry_attempts is not None:
        config.retry_max_attempts = max(1, retry_attempts)
    retry_base = _env_number("REPRO_RETRY_BASE_MS", float)
    if retry_base is not None:
        config.retry_base_ms = max(0.0, retry_base)
    retry_cap = _env_number("REPRO_RETRY_CAP_MS", float)
    if retry_cap is not None:
        config.retry_cap_ms = max(0.0, retry_cap)
    retry_budget = _env_number("REPRO_RETRY_BUDGET", int)
    if retry_budget is not None:
        config.retry_budget = max(0, retry_budget)
    breaker_threshold = _env_number("REPRO_BREAKER_THRESHOLD", int)
    if breaker_threshold is not None:
        config.breaker_threshold = max(1, breaker_threshold)
    breaker_cooldown = _env_number("REPRO_BREAKER_COOLDOWN_S", float)
    if breaker_cooldown is not None:
        config.breaker_cooldown_s = max(0.0, breaker_cooldown)
    watchdog_stall = _env_number("REPRO_WATCHDOG_STALL_S", float)
    if watchdog_stall is not None:
        config.watchdog_stall_s = max(0.0, watchdog_stall)
    # Observability knobs: trace sampling, ring retention, site gating.
    obs_enabled = os.environ.get("REPRO_OBS_ENABLED", "")
    if obs_enabled:
        config.obs_enabled = obs_enabled != "0"
    obs_sample = _env_number("REPRO_OBS_SAMPLE", float)
    if obs_sample is not None:
        config.obs_sample_rate = min(1.0, max(0.0, obs_sample))
    obs_ring = _env_number("REPRO_OBS_RING", int)
    if obs_ring is not None:
        config.obs_ring_size = max(1, obs_ring)
    config.obs_sites = os.environ.get("REPRO_OBS_SITES", config.obs_sites)
    # Flight-recorder knobs: workload capture, slow log, live endpoint.
    config.obs_capture_path = os.environ.get(
        "REPRO_OBS_CAPTURE", config.obs_capture_path
    )
    capture_mb = _env_number("REPRO_OBS_CAPTURE_MAX_MB", float)
    if capture_mb is not None:
        config.obs_capture_max_mb = max(0.001, capture_mb)
    capture_keep = _env_number("REPRO_OBS_CAPTURE_KEEP", int)
    if capture_keep is not None:
        config.obs_capture_keep = max(0, capture_keep)
    http_port = _env_number("REPRO_OBS_HTTP_PORT", int)
    if http_port is not None and 0 <= http_port <= 65535:
        config.obs_http_port = http_port
    slow_k = _env_number("REPRO_OBS_SLOW_K", int)
    if slow_k is not None:
        config.obs_slow_k = max(0, slow_k)
    # Sharded-execution knobs: pool size, fan-out floor, watchdog.
    shard_procs = _env_number("REPRO_SHARD_PROCS", int)
    if shard_procs is not None:
        config.shard_procs = max(0, shard_procs)
    shard_min_rows = _env_number("REPRO_SHARD_MIN_ROWS", int)
    if shard_min_rows is not None:
        config.shard_min_rows = max(0, shard_min_rows)
    start_method = os.environ.get("REPRO_SHARD_START_METHOD", "")
    if start_method:
        config.shard_start_method = start_method
    shard_stall = _env_number("REPRO_SHARD_STALL_S", float)
    if shard_stall is not None:
        config.shard_stall_s = max(0.0, shard_stall)
    shard_respawns = _env_number("REPRO_SHARD_MAX_RESPAWNS", int)
    if shard_respawns is not None:
        config.shard_max_respawns = max(0, shard_respawns)
    return config


_config = _config_from_env()


def get_config() -> ReproConfig:
    """Return the process-wide configuration object."""
    return _config


def configure(**overrides) -> ReproConfig:
    """Update fields of the process-wide configuration in place.

    Example::

        repro.config.configure(default_threads=4,
                               default_buffer_budget_bytes=64 << 20)
    """
    from dataclasses import fields

    valid = {f.name for f in fields(ReproConfig)}
    for name, value in overrides.items():
        if name not in valid:
            raise AttributeError(f"unknown config field {name!r}")
        setattr(_config, name, value)
    return _config


def set_seed(seed: int) -> None:
    """Reset the global base seed (affects subsequently created streams)."""
    _config.seed = int(seed)


def rng(name: str = "default") -> np.random.Generator:
    """Convenience accessor: deterministic generator for ``name``."""
    return _config.rng(name)


def cpu_count() -> int:
    """Number of usable CPUs (respects the config override)."""
    if _config.default_threads is not None:
        return _config.default_threads
    return os.cpu_count() or 1
