"""Deterministic, seedable fault injection (the chaos-testing substrate).

Every failure-hardened layer of the engine calls :func:`maybe_inject` at
its *injection site* — engine worker loops, the exact re-score kernel,
quantized-store builds, index probes, the service dispatcher.  With no
injector installed (the production default, ``REPRO_FAULT_RATE=0``) the
call is one module-global ``None`` check; with one installed, each site
hit consults a deterministic schedule:

* the decision for the *n*-th hit of a site is a pure function of
  ``(seed, site, n)`` — an integer hash thresholded against the fault
  rate — so a chaos run with a fixed seed injects the same fault count
  per site regardless of thread interleaving;
* the injected *kind* is drawn from the configured list: ``transient``
  (raise :class:`~repro.errors.TransientFault` — the retry layer's
  food), ``permanent`` (:class:`~repro.errors.PermanentFault` — trips
  circuit breakers) and ``latency`` (sleep a spike).

Exactness under injection is the point: faults only ever abort, delay,
or re-execute *pure* work (morsels, kernel calls, store builds), so a
service surviving a fault storm still returns bit-identical results.
"""

from __future__ import annotations

import threading
import time
import zlib

from ..config import get_config, mix32
from ..errors import PermanentFault, TransientFault

#: Fault kinds the injector can draw.
KINDS = ("transient", "permanent", "latency")


class FaultStats:
    """Counters for one injector's lifetime (read via :meth:`snapshot`)."""

    def __init__(self) -> None:
        self.checks = 0
        self.injected = 0
        self.by_site: dict[str, int] = {}
        self.by_kind: dict[str, int] = {}
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "checks": self.checks,
                "injected": self.injected,
                "by_site": dict(self.by_site),
                "by_kind": dict(self.by_kind),
            }


class FaultInjector:
    """Seeded fault schedule over the named injection sites.

    Args:
        rate: per-site-hit injection probability in ``[0, 1]``.
        seed: schedule seed; equal seeds give equal per-site schedules.
        sites: iterable of site names to arm (``None``: every site).
        kinds: fault kinds to rotate through on injection.
        latency_s: duration of an injected latency spike.
        max_faults: hard cap on total injections (``None``: unbounded).
        sleep: clock hook for tests (defaults to ``time.sleep``).
    """

    def __init__(
        self,
        rate: float,
        *,
        seed: int = 0,
        sites=None,
        kinds=("transient",),
        latency_s: float = 0.001,
        max_faults: int | None = None,
        sleep=time.sleep,
    ) -> None:
        self.rate = min(1.0, max(0.0, float(rate)))
        self.seed = int(seed)
        self.sites = None if sites is None else frozenset(sites)
        kinds = tuple(kinds) or ("transient",)
        unknown = set(kinds) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}; have {KINDS}")
        self.kinds = kinds
        self.latency_s = max(0.0, float(latency_s))
        self.max_faults = max_faults
        self._sleep = sleep
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.stats = FaultStats()

    @classmethod
    def from_config(cls) -> "FaultInjector | None":
        """Build from the config's ``fault_rate`` / ``fault_seed`` /
        ``fault_kinds`` (every site armed); ``None`` when the rate is 0."""
        config = get_config()
        if config.fault_rate <= 0.0:
            return None
        kinds = [k.strip() for k in config.fault_kinds.split(",") if k.strip()]
        seed = (
            config.stream_seed("fault-injector")
            if config.fault_seed is None
            else config.fault_seed
        )
        return cls(config.fault_rate, seed=seed, kinds=kinds)

    def decide(self, site: str) -> str | None:
        """The kind injected at this site hit, or ``None`` (pure w.r.t.
        the per-site hit counter: hit *n* of a site always decides the
        same way for a given seed)."""
        if self.sites is not None and site not in self.sites:
            return None
        with self._lock:
            n = self._counts.get(site, 0)
            self._counts[site] = n + 1
            with self.stats._lock:
                self.stats.checks += 1
                if (
                    self.max_faults is not None
                    and self.stats.injected >= self.max_faults
                ):
                    return None
        h = mix32(self.seed ^ zlib.crc32(site.encode("utf-8")) ^ mix32(n))
        if h / 2.0**32 >= self.rate:
            return None
        kind = self.kinds[mix32(h ^ 0xA5A5A5A5) % len(self.kinds)]
        with self.stats._lock:
            self.stats.injected += 1
            self.stats.by_site[site] = self.stats.by_site.get(site, 0) + 1
            self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        return kind

    def hit(self, site: str) -> None:
        """Apply this site hit's scheduled fault (possibly none)."""
        kind = self.decide(site)
        if kind is None:
            return
        if kind == "latency":
            self._sleep(self.latency_s)
            return
        if kind == "permanent":
            raise PermanentFault(f"injected permanent fault at {site}")
        raise TransientFault(f"injected transient fault at {site}")


#: The process-wide injector; ``None`` keeps every site a no-op.
_active: FaultInjector | None = None


def install_injector(injector: FaultInjector | None) -> FaultInjector | None:
    """Install (or clear, with ``None``) the process-wide injector."""
    global _active
    _active = injector
    return injector


def clear_injector() -> None:
    """Disarm every injection site."""
    install_injector(None)


def active_injector() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _active


def maybe_inject(site: str) -> None:
    """The per-site hook: free when no injector is installed."""
    injector = _active
    if injector is not None:
        injector.hit(site)


# Arm at import when the environment asks for it (the CI chaos shard
# exports REPRO_FAULT_RATE before pytest starts).
if get_config().fault_rate > 0.0:
    install_injector(FaultInjector.from_config())
