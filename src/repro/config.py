"""Global configuration for deterministic, reproducible runs.

The paper runs all synthetic experiments with a fixed random number generator
seed (Section VI, Hardware Setup).  We centralise seeding here: every module
that needs randomness asks for an :func:`rng` derived from the global seed
and a per-purpose stream name, so adding a new experiment never perturbs the
random streams of existing ones.
"""

from __future__ import annotations

import os
import warnings
import zlib
from dataclasses import dataclass, fields

import numpy as np

#: Default global seed, matching the "same random number generator seed for
#: reproducibility" setup in the paper's evaluation.
DEFAULT_SEED = 42


def mix32(x: int) -> int:
    """Cheap deterministic 32-bit mix (xorshift-multiply): the hash under
    every counter-indexed schedule — fault injection, trace sampling."""
    x &= 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x7FEB352D) & 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 0x846CA68B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


@dataclass
class ReproConfig:
    """Process-wide settings: what a run turns without touching code.

    A value lives here only while something sets it — a test or benchmark
    through :func:`configure`, CI or a benchmark run through a ``REPRO_*``
    variable — or it is a deployment setting (a path, a port).
    Every other tunable is a keyword argument of the constructor that
    consumes it; ``docs/TUNING.md`` lists both kinds.  An engine reads
    its fields when it is built: a later :func:`configure` reaches the
    engines built after it.

    Attributes:
        seed: Global base seed for all random streams.
        default_threads: Worker count for data-parallel operators.  ``None``
            means "use all available CPUs".
        default_buffer_budget_bytes: Process-wide Figure 7 buffer budget for
            dense join intermediates.  ``None`` leaves batch shapes to the
            operator defaults.
        fault_rate: Probability that one fault-injection site hit injects
            a fault (chaos testing).  ``0.0`` never installs the injector,
            so production paths pay one ``None`` check.
        fault_seed: Seed for the deterministic injection schedule.
            ``None`` derives a stream seed from the global ``seed``.
        fault_kinds: Comma-separated fault kinds to draw from:
            ``transient``, ``permanent``, ``latency``; any other kind is a
            ``ValueError`` when the injector is built.
        obs_capture_path: Workload-capture (flight recorder) JSONL file.
            Empty (the default) disables capture entirely.
        obs_http_port: TCP port for the live introspection endpoint.
            ``None`` starts no server; ``0`` binds an ephemeral port.
    """

    seed: int = DEFAULT_SEED
    default_threads: int | None = None
    default_buffer_budget_bytes: int | None = None
    fault_rate: float = 0.0
    fault_seed: int | None = None
    fault_kinds: str = "transient"
    obs_capture_path: str = ""
    obs_http_port: int | None = None

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
        warnings.warn(
            f"ignoring malformed {name}={raw!r} (expected a number)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _config_from_env() -> ReproConfig:
    """Build the process-wide config, honouring ``REPRO_*`` overrides.

    A figure benchmark run (``python -m pytest benchmarks/...``) takes its
    thread count and buffer budget from these variables, so figure runs
    exercise the engine at the requested scale.
    """
    config = ReproConfig()
    threads = _env_number("REPRO_THREADS", int)
    if threads is not None:
        config.default_threads = max(1, threads)
    # Conversion and positivity both live inside the guarded parse, so
    # "nan"/"inf"/zero/negative are rejected like any other malformed value.
    def _budget(raw: str) -> int:
        value = int(float(raw) * 2**20)
        if value < 1:
            raise ValueError("budget must be positive")
        return value

    budget_bytes = _env_number("REPRO_BUFFER_BUDGET_MB", _budget)
    if budget_bytes is not None:
        config.default_buffer_budget_bytes = budget_bytes
    # Fault injection: the CI chaos shard arms it through these three.
    fault_rate = _env_number("REPRO_FAULT_RATE", float)
    if fault_rate is not None:
        config.fault_rate = min(1.0, max(0.0, fault_rate))
    fault_seed = _env_number("REPRO_FAULT_SEED", int)
    if fault_seed is not None:
        config.fault_seed = fault_seed
    config.fault_kinds = os.environ.get("REPRO_FAULT_KINDS", config.fault_kinds)
    # Deployment settings: where capture goes, where introspection listens.
    config.obs_capture_path = os.environ.get("REPRO_OBS_CAPTURE", "")
    http_port = _env_number("REPRO_OBS_HTTP_PORT", int)
    if http_port is not None and 0 <= http_port <= 65535:
        config.obs_http_port = http_port
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
    valid = {f.name for f in fields(ReproConfig)}
    for name in overrides:
        if name not in valid:
            raise AttributeError(f"unknown config field {name!r}")
    for name, value in overrides.items():
        setattr(_config, name, value)
    return _config


def rng(name: str = "default") -> np.random.Generator:
    """Convenience accessor: deterministic generator for ``name``."""
    return _config.rng(name)


def cpu_count() -> int:
    """Number of usable CPUs (respects the config override)."""
    if _config.default_threads is not None:
        return _config.default_threads
    return os.cpu_count() or 1
