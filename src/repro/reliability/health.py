"""Service health snapshot: one structure for every reliability signal.

:meth:`~repro.service.service.QueryService.health` assembles this from
the live components — breaker registry, engine retry stats, the active
fault injector (if any), the QoS shed/deadline counters and the shard
pool's worker health — so operators and the bench harness read one
coherent picture instead of scattered snapshots.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class ServiceHealth:
    """Point-in-time reliability state of a running service.

    Attributes:
        status: ``"ok"`` when no breaker is open and no shard worker
            died or stalled; ``"degraded"`` otherwise.  A degraded
            service still serves — the flag exists so load balancers and
            dashboards can see that some access paths are routing around
            failures.
        breakers: per-access-path breaker states (``key -> snapshot``).
        open_breakers: number of breakers not in the closed state.
        retries: engine retry counters (attempts/retries/giveups/...).
        faults: active fault-injector stats (empty when disarmed).
        qos: shed/deadline counters from the QoS layer.
        service: completed/failed/shed counters from the service proper.
        shard: shard-process pool health (procs/alive/deaths/respawns);
            empty when sharded execution is disabled.
    """

    status: str = "ok"
    breakers: dict = field(default_factory=dict)
    open_breakers: int = 0
    retries: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    qos: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    shard: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)
