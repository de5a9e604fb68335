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
from .scan import TOPK_PRESCREEN_PAD


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
# Quantized access paths (Section V-A-2 carried to int8/PQ)
# ----------------------------------------------------------------------
def precision_code_bytes(precision: str, dim: int, *, pq_m: int = 8) -> int:
    """Stored bytes per vector at each operand precision."""
    if precision == "fp32":
        return 4 * dim
    if precision == "fp16":
        return 2 * dim
    if precision == "int8":
        return dim
    if precision == "pq":
        return pq_m
    raise JoinError(f"unknown precision {precision!r}")


def quantized_scan_join_cost(
    n_left: int,
    n_base: int,
    dim: int,
    params: CostParams,
    *,
    bytes_per_code: int,
    rerank_k: int,
    lut_adds: int | None = None,
) -> float:
    """Quantized tensor-join cost: compressed scan plus exact re-rank.

    The pairwise access term scales with the code-to-fp32 byte ratio (the
    memory-traffic lever quantization pulls); the approximate compute term
    runs ``lut_adds`` fused adds per pair (``dim`` for int8's GEMM over
    codes, ``m`` for PQ's table lookups).  Each probe then re-ranks
    ``rerank_k`` candidates at full precision.
    """
    full_bytes = 4.0 * dim
    traffic = min(bytes_per_code / full_bytes, 1.0)
    adds = dim if lut_adds is None else lut_adds
    c_approx = params.compute_per_dim * adds * params.gemm_efficiency
    scan = n_left * n_base * (params.access * traffic + c_approx)
    c_full = params.compute_per_dim * dim
    rerank = n_left * rerank_k * (params.access + c_full)
    model = (n_left + n_base) * params.model
    return scan + rerank + model


def quantized_build_cost(
    n_base: int,
    dim: int,
    params: CostParams,
    *,
    precision: str,
    pq_ks: int = 256,
    kmeans_iters: int = 10,
) -> float:
    """One-time cost of fitting and encoding a quantized relation.

    int8 pays one elementwise pass over the relation (min/max fit plus
    affine encode); PQ additionally trains ``ks`` centroids per subspace
    with ``kmeans_iters`` GEMM-assignment sweeps.  Charged by the
    precision chooser whenever no pre-built store amortizes it — this is
    what keeps one-shot selections on the exact fp32 scan.
    """
    per_row = params.compute_per_dim * dim
    if precision == "pq":
        per_row += (
            kmeans_iters
            * pq_ks
            * params.compute_per_dim
            * dim
            * params.gemm_efficiency
        )
    return n_base * per_row


@dataclass(frozen=True)
class PrecisionDecision:
    """Outcome of quantized-vs-fp32 scan selection."""

    precision: str  # chosen operand precision for the scan
    fp32_cost: float
    quantized_cost: float


def choose_scan_precision(
    n_left: int,
    n_base: int,
    k: int,
    dim: int,
    *,
    topk: bool = True,
    precision: str | None = None,
    params: CostParams | None = None,
    pq_m: int = 8,
    store_built: bool = False,
) -> PrecisionDecision:
    """Pick the scan's operand precision: the cheaper of fp32 and codes.

    Either answers exactly (a quantized top-k is proved or rescanned), so
    the configured (or requested) precision is adopted when its modelled
    cost — a code scan plus each row's ``k +`` ``TOPK_PRESCREEN_PAD``
    exact re-ranks — beats the fp32 scan.  ``precision=None`` defaults
    from the process-wide config (the ``REPRO_PRECISION`` knob).  Unless
    ``store_built`` says a pre-encoded
    :class:`~repro.core.quantized_join.QuantizedRelation` already exists,
    the one-time fit/encode cost is charged too — a single probe over a
    cold relation should stay on the fp32 scan.

    A PQ ``topk`` join stays on fp32 whatever the price: PQ's error bound
    proves no top-k row, so every row also takes the fixed-floor pass — a
    second code scan and thousands of exact re-ranks, measured at 0.07x
    of fp32 — which this model does not price.
    """
    from ..config import get_config

    if precision is None:
        precision = get_config().default_precision
    params = params or CostParams()
    params.validate()
    fp32 = tensor_join_cost(n_left, n_base, dim, params)
    if precision not in ("int8", "pq") or (precision == "pq" and topk):
        return PrecisionDecision("fp32", fp32, math.inf)
    quantized = quantized_scan_join_cost(
        n_left,
        n_base,
        dim,
        params,
        bytes_per_code=precision_code_bytes(precision, dim, pq_m=pq_m),
        rerank_k=min(k + TOPK_PRESCREEN_PAD, n_base),
        lut_adds=pq_m if precision == "pq" else None,
    )
    if not store_built:
        quantized += quantized_build_cost(
            n_base, dim, params, precision=precision
        )
    return PrecisionDecision(precision if quantized < fp32 else "fp32", fp32, quantized)


# ----------------------------------------------------------------------
# Access-path selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessPathDecision:
    """Outcome of scan-vs-probe selection."""

    choice: str  # "scan" | "index"
    scan_cost: float
    index_cost: float

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
) -> AccessPathDecision:
    """Selectivity-driven scan-vs-index decision (Section VI-E takeaway).

    Low selectivity favours the scan (it filters cheaply and computes on
    the survivors); high selectivity with small ``k`` favours the index.
    """
    params = params or CostParams()
    params.validate()
    scan = scan_join_cost_filtered(
        n_left, n_base, dim, params, selectivity=selectivity
    )
    if not index_available:
        return AccessPathDecision("scan", scan, math.inf)
    index = index_join_cost(
        n_left,
        n_base,
        k,
        dim,
        params,
        ef_search=ef_search,
        selectivity=selectivity,
    )
    choice = "scan" if scan <= index else "index"
    return AccessPathDecision(choice, scan, index)


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
