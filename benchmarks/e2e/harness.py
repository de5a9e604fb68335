"""Measurement harness: box probes, timed slices, statistics, environment.

Nothing here imports ``repro``: the probes that size the box's speed must
not depend on the program under test, or a change to the program would
move its own yardstick.

The box this benchmark was built on runs 20-70% slower for minutes at a
time (CPU time inflates with wall time; ``/proc/stat`` shows no steal).
Every timing is therefore reported *at nominal box speed*: a probe reading
is taken before and after each slice of a phase, the phase's box factor is
the geometric mean over the two CPU probes of (mean reading / frozen
calm-box constant), and the phase's latencies and rates are brought to
nominal speed with it.  Only probes the program cannot move make the
factor: one thread, a working set that fits the core's own cache.  The
32 MB copy is read beside them as a diagnostic; the program's memory
traffic evicts its buffers, so it would carry the program's footprint into
the yardstick.  Raw values stay in the record next to the normalised ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Calm-box medians of the probes that make the box factor, measured by the
#: builder on the 2-core reference box, interleaved with the workloads (see
#: README "Probe constants").  Frozen: changing them rescales every
#: normalised timing, so they change only with the baseline.
NOMINAL_PROBE_MS = {"gemm_ms": 0.93, "py_ms": 1.10}

#: The factor is clipped to the slow stretches actually observed (up to
#: ~1.8x) plus margin, so a broken probe cannot rescale a run without limit.
FACTOR_CLIP = (0.8, 2.0)

#: A single reading whose factor exceeds this saw a disturbed box.
DISTURBED_FACTOR = 1.15

#: Timed slices per untraced run / per traced run's client phase.
SLICES = 10
TRACED_SLICES = 4

#: Probe readings per slice: a slice is run in this many cuts with a reading
#: after each.  A 20 ms reading misses the phase's mean speed by ~10% (the
#: bursts it does or does not fall into); 41 of them, 0.3-0.5 s apart, miss
#: it by ~1.6%, where 11 missed it by 3-4% (README "What the noise looks
#: like").
READINGS_PER_SLICE = 4

#: Seconds of probe pre-warm before anything is timed (the first run after
#: an idle period was a 15-25% outlier without it).
PREWARM_S = 2.0

OUT_DIR = Path(__file__).resolve().parent / "_out"


class Probes:
    """The probes: compute, interpreter and (diagnostic) memory — NumPy and
    Python only."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((512, 256), dtype=np.float32)
        self._b = rng.standard_normal((256, 512), dtype=np.float32)
        self._out = np.empty((512, 512), dtype=np.float32)
        self._src = np.ones(32 * 2**20 // 4, dtype=np.float32)
        self._dst = np.empty_like(self._src)

    def _gemm(self) -> float:
        start = time.perf_counter()
        np.matmul(self._a, self._b, out=self._out)
        return time.perf_counter() - start

    @staticmethod
    def _py() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i & 7
        return time.perf_counter() - start

    def _mem(self) -> float:
        start = time.perf_counter()
        np.copyto(self._dst, self._src)
        return time.perf_counter() - start

    def reading(self) -> dict[str, float]:
        """One reading: median milliseconds of each probe (5 / 3 / 3
        repetitions).

        One untimed copy comes first: on this microVM the first touch of
        the 64 MB of probe buffers after other memory traffic, or after an
        idle second, is ~2x slow whatever the box is doing.
        """
        self._mem()
        return {
            "gemm_ms": 1e3 * statistics.median(self._gemm() for _ in range(5)),
            "py_ms": 1e3 * statistics.median(self._py() for _ in range(3)),
            "mem_ms": 1e3 * statistics.median(self._mem() for _ in range(3)),
        }

    def prewarm(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.reading()


def box_factor(readings: list[dict[str, float]]) -> float:
    """The box's speed over a stretch: for each probe the mean of its
    readings over nominal, then the geometric mean of the two, clipped.

    One factor over a whole phase, not one per slice: single readings (20 ms
    each) catch or miss the box's short bursts at random and track a
    one-second slice worse than no correction at all.  And the mean of the
    readings, not their median: the share of the readings that fell into a
    burst is the share of the phase the bursts took, so the mean follows what
    the phase lost to them, while the median jumps to the burst level once
    half the readings are hit (README "What the noise looks like").
    """
    logs = [
        math.log(statistics.fmean(r[name] for r in readings) / nominal)
        for name, nominal in NOMINAL_PROBE_MS.items()
    ]
    return min(max(math.exp(statistics.fmean(logs)), FACTOR_CLIP[0]), FACTOR_CLIP[1])


@dataclass
class OpSample:
    """One timed operation as the client saw it."""

    shape: str
    seconds: float
    ok: bool = True


@dataclass
class Slice:
    """One equal-count cut of a phase."""

    wall_s: float
    cpu_s: float
    samples: list[OpSample] = field(default_factory=list)


@dataclass
class Phase:
    """A measured stretch: its slices and the probe readings taken before,
    between and after the calls that made them."""

    slices: list[Slice]
    readings: list[dict[str, float]]

    @property
    def factor(self) -> float:
        return box_factor(self.readings)


def run_phase(probes: Probes, parts) -> Phase:
    """Run each callable of ``parts`` between two probe readings.

    A part returns ``None`` (its wall time is taken around the call) or
    ``(wall_s, samples)`` with the wall time taken tightly around its
    operations.
    """
    slices, readings = [], [probes.reading()]
    for part in parts:
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = part()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        readings.append(probes.reading())
        if result is None:
            slices.append(Slice(wall, cpu))
        else:
            slices.append(Slice(result[0], cpu, result[1]))
    return Phase(slices, readings)


def run_slices(probes: Probes, n_ops: int, n_slices: int, run_ops) -> Phase:
    """Cut ``[0, n_ops)`` into equal-count slices and time each.

    ``run_ops(lo, hi)`` executes the operations and returns
    ``(wall_s, samples)``.  Each slice is run in ``READINGS_PER_SLICE`` cuts
    with a probe reading after each; its time is the sum over its cuts.
    """
    k = READINGS_PER_SLICE
    bounds = [round(i * n_ops / (n_slices * k)) for i in range(n_slices * k + 1)]
    cuts = run_phase(
        probes,
        [lambda lo=lo, hi=hi: run_ops(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
    )
    slices = [
        Slice(
            sum(c.wall_s for c in group),
            sum(c.cpu_s for c in group),
            [s for c in group for s in c.samples],
        )
        for group in (cuts.slices[i : i + k] for i in range(0, n_slices * k, k))
    ]
    return Phase(slices, cuts.readings)


def client_stats(phase: Phase) -> dict:
    """Client-side numbers of a timed phase, at nominal box speed and raw.

    ``op_ms_p50`` is the mean over operation shapes of the per-shape median
    latency (a median never sits between two shapes' modes); ``ops_per_s`` is
    the median over the slices of correct operations per second, so a burst
    that stalls one slice does not move it.  Both are then brought to nominal
    box speed with the phase's one box factor; the ``*_raw`` twins are the
    same statistics without it.
    """
    slices, factor = phase.slices, phase.factor
    by_shape: dict[str, list[float]] = {}
    for sl in slices:
        for s in sl.samples:
            if s.ok:
                by_shape.setdefault(s.shape, []).append(1e3 * s.seconds)
    every = [ms for values in by_shape.values() for ms in values]
    ok = len(every)
    rates = [sum(s.ok for s in sl.samples) / sl.wall_s for sl in slices]
    p50_raw = statistics.fmean(statistics.median(v) for v in by_shape.values())
    q1, mid, q3 = statistics.quantiles(rates, n=4)
    return {
        "attempted": sum(len(sl.samples) for sl in slices),
        "ok": ok,
        "op_ms_p50": p50_raw / factor,
        "op_ms_p50_raw": p50_raw,
        "op_ms_p95": float(np.percentile(every, 95)) / factor,
        "ops_per_s": mid * factor,
        "ops_per_s_raw": mid,
        "cpu_ms_per_op": 1e3 * sum(sl.cpu_s for sl in slices) / max(ok, 1),
        "slice_spread": (q3 - q1) / mid,
        "shape_p50_ms": {k: statistics.median(v) / factor for k, v in by_shape.items()},
        "shape_samples": {k: len(v) for k, v in by_shape.items()},
        "slice_ops_per_s_raw": rates,
        "box": {
            "factor": factor,
            "readings": phase.readings,
            "disturbed_share": statistics.fmean(
                box_factor([r]) > DISTURBED_FACTOR for r in phase.readings
            ),
            **{
                name: statistics.fmean(r[name] for r in phase.readings)
                for name in phase.readings[0]
            },
        },
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its waited-for children, in MB."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def sha256_arrays(*parts) -> str:
    """SHA-256 over the bytes of the generated inputs (arrays or strings)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _git_rev(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without a subprocess (``None`` in a
    plain checkout, which is how the driver runs the benchmark)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def environment(root: Path) -> dict:
    """What every record carries so a number can be traced to its box."""
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError):
        pass
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_threads": os.environ.get("REPRO_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
        "nominal_probe_ms": NOMINAL_PROBE_MS,
    }


def write_record(record: dict, name: str) -> Path:
    """Write the full record (``"claim": null`` last) under ``_out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps({**record, "claim": None}, indent=1) + "\n")
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
