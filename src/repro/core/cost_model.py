"""Abstract cost model for context-enhanced operators (Section IV-A/B).

The paper's cost model separates three per-tuple cost factors —

* ``A`` — data access,
* ``M`` — model (embedding) invocation,
* ``C`` — similarity computation (scales with vector dimensionality),

and parametrizes them "based on their mutually normalized relative
performance" for the target architecture.  This module encodes the four
cost equations of the paper, plus the scan-vs-probe access-path selector
of Section VI-E (extending Kester et al.'s access path selection to vector
data management).

Qualitative summary (paper Table I):

====================  =====================  ============================
Property              Scan (tensor) join     Index join
====================  =====================  ============================
Accuracy              Exact                  Approximate
Filtering             Full relational        Vector sim. & pre-filtering
Cost                  Compute & scan         Build & compute & probe
Flexibility           Any expression         Limited, build-time distance
====================  =====================  ============================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import JoinError


@dataclass
class CostParams:
    """Mutually-normalized relative cost factors.

    Defaults are calibrated for this repo's NumPy substrate: sequential
    access is the unit; a model call (hashing embedder) costs ~tens of
    accesses; per-dimension fused multiply-adds are cheap in GEMM and
    pricier in the row-at-a-time kernel.
    """

    access: float = 1.0
    model: float = 50.0
    compute_per_dim: float = 0.05
    #: GEMM processes a multiply-add this much more cheaply than the
    #: row-at-a-time vectorized kernel (cache-blocked BLAS, Section V-A-1).
    gemm_efficiency: float = 0.25
    #: Scalar (pure-Python) kernel slowdown versus the vectorized kernel.
    scalar_penalty: float = 100.0
    #: Index probe constants: per-hop cost and beam width multiplier.
    probe_hop: float = 8.0
    probe_beam: float = 1.0
    #: Fixed per-scan cost of fanning out to one shard worker process:
    #: task encode, pipe round-trip, heap merge.  Expressed in the same
    #: sequential-access units as everything else; calibrated so tables
    #: below ~10k rows never leave the process.
    shard_dispatch: float = 4000.0

    def validate(self) -> None:
        values = {
            "access": self.access,
            "model": self.model,
            "compute_per_dim": self.compute_per_dim,
            "gemm_efficiency": self.gemm_efficiency,
            "scalar_penalty": self.scalar_penalty,
            "probe_hop": self.probe_hop,
            "probe_beam": self.probe_beam,
            "shard_dispatch": self.shard_dispatch,
        }
        for name, v in values.items():
            if v <= 0:
                raise JoinError(f"cost parameter {name} must be positive, got {v}")


# ----------------------------------------------------------------------
# Paper cost equations
# ----------------------------------------------------------------------
def e_selection_cost(n: int, dim: int, params: CostParams) -> float:
    """E-Selection Cost: ``|R| * (A + M + C)``."""
    c = params.compute_per_dim * dim
    return n * (params.access + params.model + c)


def naive_nlj_cost(n_left: int, n_right: int, dim: int, params: CostParams) -> float:
    """E-NL Join Cost: ``|R|*|S|*(A + M + C)`` — quadratic model cost."""
    c = params.compute_per_dim * dim
    return n_left * n_right * (params.access + params.model + c)


def prefetch_nlj_cost(
    n_left: int,
    n_right: int,
    dim: int,
    params: CostParams,
    *,
    scalar_kernel: bool = False,
) -> float:
    """E-NLJ Prefetch Optimization: ``|R|*|S|*(A+C) + (|R|+|S|)*M``."""
    c = params.compute_per_dim * dim
    if scalar_kernel:
        c *= params.scalar_penalty
    pairwise = n_left * n_right * (params.access + c)
    model = (n_left + n_right) * params.model
    return pairwise + model


def tensor_join_cost(
    n_left: int, n_right: int, dim: int, params: CostParams
) -> float:
    """Tensor formulation: prefetch NLJ with GEMM-efficient compute."""
    c = params.compute_per_dim * dim * params.gemm_efficiency
    pairwise = n_left * n_right * (params.access + c)
    model = (n_left + n_right) * params.model
    return pairwise + model


def shard_fanout_cost(
    n_rows: int,
    n_queries: int,
    dim: int,
    n_shards: int,
    params: CostParams,
) -> float:
    """Cost of the coalesced scan fanned out across ``n_shards`` processes.

    The stacked GEMM over the shared column store parallelizes perfectly
    across disjoint row ranges, so scan compute divides by the fan-out;
    what does not divide is the fixed per-shard dispatch term (task
    encode, pipe round-trip, heap merge back at the front door).  With
    ``n_shards == 1`` this degenerates to the in-process scan cost.
    """
    c = params.compute_per_dim * dim * params.gemm_efficiency
    scan = n_queries * n_rows * (params.access + c)
    if n_shards <= 1:
        return scan
    return scan / n_shards + n_shards * params.shard_dispatch


def choose_shard_fanout(
    n_rows: int,
    n_queries: int,
    dim: int,
    n_shards: int,
    *,
    params: CostParams | None = None,
    min_rows: int = 0,
) -> int:
    """Shards worth using for one coalesced scan (``1`` means stay serial).

    Compares the fanned-out cost against the in-process scan and refuses
    to shard tables under ``min_rows`` outright — for tiny tables the
    dispatch overhead dominates any conceivable GEMM win, and the config
    floor saves computing the model at all.
    """
    params = params or CostParams()
    if n_shards <= 1 or n_rows < max(min_rows, 1):
        return 1
    serial = shard_fanout_cost(n_rows, n_queries, dim, 1, params)
    fanned = shard_fanout_cost(n_rows, n_queries, dim, n_shards, params)
    return n_shards if fanned < serial else 1


def index_probe_cost(
    n_base: int,
    k: int,
    dim: int,
    params: CostParams,
    *,
    ef_search: int = 64,
    selectivity: float = 1.0,
) -> float:
    """``I_probe(S)``: one HNSW probe against ``n_base`` stored vectors.

    Graph traversal visits ``O(ef * log n)`` nodes.  Under a relational
    pre-filter, the traversal still walks disallowed nodes while the result
    heap only admits allowed ones — so the effective work to surface ``k``
    allowed results grows as selectivity drops (Section IV-B).
    """
    if n_base <= 0:
        return 0.0
    sel = min(max(selectivity, 1.0 / max(n_base, 1)), 1.0)
    beam = max(ef_search, k) * params.probe_beam
    hops = beam * max(math.log2(n_base), 1.0)
    filter_penalty = 1.0 / math.sqrt(sel)
    c = params.compute_per_dim * dim
    return hops * (params.probe_hop + c) * filter_penalty


def index_join_cost(
    n_left: int,
    n_base: int,
    k: int,
    dim: int,
    params: CostParams,
    *,
    ef_search: int = 64,
    selectivity: float = 1.0,
) -> float:
    """E-Index Join Cost: ``|R| * I_probe(S) * (A + C)`` (model prefetched)."""
    probe = index_probe_cost(
        n_base, k, dim, params, ef_search=ef_search, selectivity=selectivity
    )
    model = n_left * params.model  # probe vectors are embedded once
    return n_left * probe + model


def probed_scan_cost(
    n_left: int, n_base: int, dim: int, params: CostParams, lists: int, share: float
) -> float:
    """Each left row scores ``lists`` centres, then ``share`` of the
    ``n_base`` rows, at GEMM cost: an IVF probe (share ``nprobe / nlist``)
    and a cap-bounded scan (its measured ``kept_share``) alike."""
    c = params.compute_per_dim * dim * params.gemm_efficiency
    return n_left * (lists + share * n_base) * (params.access + c)


def scan_join_cost_filtered(
    n_left: int,
    n_base: int,
    dim: int,
    params: CostParams,
    *,
    selectivity: float = 1.0,
) -> float:
    """Tensor-join cost after relational pre-filtering shrinks the base side.

    A scan applies the relational filter *before* the similarity compute
    (full relational filtering, Table I): the effective inner cardinality is
    ``selectivity * n_base`` plus one cheap pass to evaluate the filter.
    """
    sel = min(max(selectivity, 0.0), 1.0)
    effective = int(round(sel * n_base))
    filter_pass = n_base * params.access
    return tensor_join_cost(n_left, effective, dim, params) + filter_pass


# ----------------------------------------------------------------------
# Access-path selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessPathDecision:
    """Outcome of scan-vs-probe selection."""

    choice: str  # "scan" | "index"
    scan_cost: float
    index_cost: float
    #: The cap partition's measured share when the scan was priced on it.
    caps_share: float | None = None

    @property
    def ratio(self) -> float:
        """index_cost / scan_cost (>1 means scan wins)."""
        if self.scan_cost == 0:
            return math.inf
        return self.index_cost / self.scan_cost


def choose_access_path(
    n_left: int,
    n_base: int,
    k: int,
    dim: int,
    *,
    selectivity: float = 1.0,
    params: CostParams | None = None,
    ef_search: int = 64,
    index_available: bool = True,
    caps: tuple[int, float] | None = None,
    index_lists: tuple[int, float] | None = None,
) -> AccessPathDecision:
    """Selectivity-driven scan-vs-index decision (Section VI-E takeaway).

    Low selectivity favours the scan (it filters cheaply and computes on
    the survivors); high selectivity with small ``k`` favours the index.
    ``caps``, ``(centres, kept share)`` of a cap partition that will take
    the join, can only move an index pick onto the exact scan: the index
    must also beat the caps priced as :func:`probed_scan_cost`, an IVF
    (``index_lists``, ``(nlist, nprobe / nlist)``) by the same formula, a
    graph by its own.  The reported costs are the deciding comparison's.
    """
    params = params or CostParams()
    params.validate()
    scan = scan_join_cost_filtered(n_left, n_base, dim, params, selectivity=selectivity)
    if not index_available:
        return AccessPathDecision("scan", scan, math.inf)
    index = index_join_cost(
        n_left, n_base, k, dim, params, ef_search=ef_search, selectivity=selectivity
    )
    if scan <= index:
        return AccessPathDecision("scan", scan, index)
    if caps is None:
        return AccessPathDecision("index", scan, index)
    scan = probed_scan_cost(n_left, n_base, dim, params, *caps)
    if index_lists is not None:
        index = probed_scan_cost(n_left, n_base, dim, params, *index_lists)
    return AccessPathDecision("scan" if scan <= index else "index", scan, index, caps[1])


def crossover_selectivity(
    n_left: int,
    n_base: int,
    k: int,
    dim: int,
    *,
    params: CostParams | None = None,
    ef_search: int = 64,
    resolution: int = 100,
) -> float | None:
    """Lowest selectivity at which the index starts winning, if any.

    Mirrors the crossover points of Figures 15-16 (20-30% for top-1, ~80%
    for top-32/Lo at paper scale).
    """
    params = params or CostParams()
    for step in range(1, resolution + 1):
        sel = step / resolution
        decision = choose_access_path(
            n_left,
            n_base,
            k,
            dim,
            selectivity=sel,
            params=params,
            ef_search=ef_search,
        )
        if decision.choice == "index":
            return sel
    return None
