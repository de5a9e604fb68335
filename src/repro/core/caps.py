"""Cap bounds: skip the right rows of an exact scan join that cannot match.

A *cap partition* of the right side's unit rows proves rows out before the
GEMM scores them (Ram & Gray's cone trees, KDD 2012).  Cap ``c`` has a unit
centre and ``m``, its lowest member cosine; a unit query with ``s = q . c``
scores no member above ``ub = 1`` if ``s >= m``, else ``s m + sqrt(1 - s^2)
sqrt(1 - m^2)`` = ``cos(max(0, alpha - theta))``.  A cap is kept when ``ub``
reaches ``f = floor - margin``, tested in fp32 as one centre GEMM plus a
rank-2 update (:func:`keep`).  A threshold task keeps the ``(row, cap)``
pairs that reach it; a top-k task each row's nearest caps until they hold
``k`` rows (phase 1, ``probe_lists``), then every cap that reaches its k-th
score (phase 2, ``prove_topk``'s rule, :func:`probe_flat`).  The bound is
on the exact score and a task scores its kept cells from the unit rows, so
the fp32, int8 and PQ scan joins share one partition.  Each constant
quotes rows of ``tools/sweep_blocks.py --caps`` (one thread)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..config import get_config
from ..index.ivf import kmeans, nearest_centroids, probe_lists
from .conditions import ThresholdCondition, TopKCondition
from .scan import PRESCREEN_MARGIN, ScanResult, _last_of_full_rows, fold_topk, fp32_dot_slack

#: Rows a cap holds on average: ``ejoin_vectors``-shaped rows keep 0.65% of
#: a top-8 join's cells at 32 (420 ms to build; bounds outgrow a 500-row
#: task, dense 62 ms), 0.69% at 64 (162 ms, join 15.0 ms), 1.8% at 96 (104, 14.0).
ROWS_PER_CAP = 64

#: Rows the k-means samples per cap: 8 keep 1.26% (133 ms), 32 0.69% (246).
SAMPLE_PER_CAP = 16

#: Its Lloyd iterations: 1 keeps 1.31%, 5 and 10 no fewer (219 / 348 ms).
CAP_ITERS = 3

#: A task whose bounds keep more of its cells joins dense, and a source whose
#: own rows' do at their 8th-best has no caps (uniform: 100%, 440 vs 62 ms).
DECLINE_SHARE = 0.25

#: Caps a source needs (4,096 rows) before a partition repays its build.
MIN_CAPS = 64

#: Dense selections a source serves before its caps are built, off-thread:
#: about one build's worth.  One build over one dense top-10 / threshold
#: selection (one BLAS thread, 256 clustered 128-d centres) is 0.73 s /
#: 2.1 ms = 345 on ``serve_scan``'s 150,000 rows and 3.0 / 0.11 ms = 27 on
#: 4,096; the larger, so no source up to 150,000 rows builds before its
#: misses have paid for it.
SELECTIONS_PER_BUILD = 345

#: Cells phase 2 compares at once: 256 KB of scores, few calls, in cache.
RUN_CELLS = 1 << 16

#: Bytes a ``(left row, cap)`` pair holds in the bound test (fp32 cosine,
#: its rank-2 update, a mask byte) and a phase-2 cell in its run (score in
#: the GEMM output and the run, the row's floor, a mask byte).
STATE_BYTES, RUN_CELL_BYTES = 9, 13


@dataclass(frozen=True)
class CapPartition:
    """Unit rows grouped by cap: cap ``c`` is ``rows[starts[c]:starts[c +
    1]]``, source rows ``ids[...]``, float64 unit ``centres[c]``, and
    ``radius[c]`` its lowest member cosine ``m``.  ``axes[c]`` is ``[centre,
    m, sqrt(1 - m^2)]`` in fp32: what :func:`keep` multiplies.
    ``kept_share`` is the share of a top-8 join's cells the bounds kept
    when :func:`build_caps` checked the partition on its own rows."""

    rows: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    centres: np.ndarray
    radius: np.ndarray
    kept_share: float = 0.0
    axes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.radius
        axes = np.column_stack((self.centres, m, np.sqrt(1.0 - m * m)))
        object.__setattr__(self, "axes", axes.astype(np.float32))

    def task(self, condition) -> tuple[partial, int]:
        """What ``scan_join(caps=)`` runs: :func:`cap_join` on these caps,
        and the bytes of bound state a left row holds on them."""
        return partial(cap_join, self, condition), STATE_BYTES * len(self.radius)

    def probe_terms(self, condition) -> tuple[int, float] | None:
        """What a top-k join on these caps is priced by, as an exact IVF:
        each left row's centre products and the measured share of the right
        rows it scores; ``None`` for a join that would decline."""
        n = len(self.ids)
        if not isinstance(condition, TopKCondition) or min(condition.k, n) > DECLINE_SHARE * n:
            return None
        return len(self.radius), self.kept_share


def build_caps(unit_rows: np.ndarray) -> CapPartition | None:
    """A source's caps — a seeded sample's spherical :func:`kmeans`, rows to
    their nearest centroid, recentred, measured — or ``None``: no gain."""
    n, n_caps = len(unit_rows), len(unit_rows) // ROWS_PER_CAP
    if n_caps < MIN_CAPS:
        return None
    rng = get_config().rng("caps")
    sample = np.sort(rng.choice(n, min(n, SAMPLE_PER_CAP * n_caps), replace=False))
    centroids = kmeans(unit_rows[sample], n_caps, n_iters=CAP_ITERS, rng=rng)
    assign = nearest_centroids(unit_rows, centroids)
    ids = np.argsort(assign, kind="stable")
    rows, counts = unit_rows[ids], np.bincount(assign)
    starts = np.concatenate(([0], np.cumsum(counts[counts > 0])))
    centres, radius = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        members = rows[lo:hi].astype(np.float64)
        # A zero mean stays a zero centre: s = m = 0, a bound of 1.
        centre = members.sum(axis=0)
        centres.append(centre / max(np.linalg.norm(centre), 1e-300))
        radius.append((members @ centres[-1]).min())
    part = CapPartition(rows, ids, starts, np.array(centres), np.clip(radius, -1.0, 1.0))
    check = unit_rows[rng.choice(n, min(n, 256), replace=False)]
    scan = cap_join(part, TopKCondition(8), check, np.inf)
    if scan is None:
        return None
    kept = scan.cells - len(check) * len(part.radius)  # less the centre products
    return replace(part, kept_share=kept / (len(check) * n))


def keep(part: CapPartition, s: np.ndarray, floors) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, caps)`` by row whose bound may reach the row's floor: every
    pair the float64 ``ub >= floor - margin`` keeps.  ``s``, the fp32 centre
    cosines (``-inf``: probed already), becomes ``s - reach`` by one rank-2
    update.  A floor over 1 keeps nothing; a cap with ``m <= -f`` reaches
    round the sphere and is kept outright."""
    f = np.broadcast_to(np.asarray(floors, np.float64), (len(s),)) - PRESCREEN_MARGIN
    g = np.clip(f, -1.0, 1.0)
    s += np.column_stack((-g, np.sqrt(1.0 - g * g))).astype(np.float32) @ part.axes[:, -2:].T
    s[f > 1.0] = -np.inf
    low = np.flatnonzero(f <= -part.radius.min())
    if len(low):
        wide = s[low]
        wide[(part.radius <= -f[low, None]) & (wide > -np.inf)] = np.inf
        s[low] = wide
    return np.divmod(np.flatnonzero(s >= -fp32_dot_slack(part.rows.shape[1])), s.shape[1])


def _nearest_caps(s: np.ndarray, sizes: np.ndarray, need: int):
    """Each row's nearest caps until they hold ``need`` rows, as ``(rows,
    caps)`` sorted by row; their cosines drop to ``-inf``."""
    todo, held, taken = np.arange(len(s)), np.zeros(len(s), np.int64), []
    while len(todo):
        taken.append((todo, np.argmax(s[todo], axis=1)))
        s[taken[-1]] = -np.inf
        held[todo] += sizes[taken[-1][1]]
        todo = todo[held[todo] < need]
    rows, caps = (np.concatenate(column) for column in zip(*taken))
    order = np.argsort(rows, kind="stable")
    return rows[order], caps[order]


def probe_flat(part: CapPartition, queries: np.ndarray, rows, caps, floors, run: int):
    """Phase 2: the cells of the ``(row, cap)`` pairs that reach their row's
    floor, as ``(rows, ids, scores)`` parts, and the most cells compared at
    once.  Each cap costs one GEMM of the rows that probe it, as in
    ``probe_lists``; the GEMMs' output is compared with each pair's floor in
    runs of whole pairs starting every ``run`` cells: no strip padded to its
    widest row, no select pass."""
    order = np.argsort(caps, kind="stable")
    rows, caps = rows[order], caps[order]
    floor = np.broadcast_to(np.asarray(floors, np.float32), (len(queries),))[rows]
    first, cells = part.starts[caps], np.diff(part.starts)[caps]
    held = np.concatenate(([0], np.cumsum(cells)))
    ends = {*(np.flatnonzero(np.diff(held[:-1] // run)) + 1).tolist(), len(rows)}
    edges = np.union1d(np.flatnonzero(np.diff(caps)) + 1, [0, *ends]).tolist()
    found, blocks, lo, widest = [], [], 0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        blocks.append((queries[rows[a:b]] @ part.rows[first[a] : first[a] + cells[a]].T).ravel())
        if b in ends:
            scores = np.concatenate(blocks)
            hit = np.flatnonzero(scores >= np.repeat(floor[lo:b], cells[lo:b]))
            pair = lo + np.searchsorted(held[lo + 1 : b + 1] - held[lo], hit, side="right")
            col = hit - held[pair] + held[lo]
            found.append((rows[pair], part.ids[first[pair] + col], scores[hit]))
            widest, blocks, lo = max(widest, len(scores)), [], b
    return found, widest


def cap_join(
    part: CapPartition, condition, queries: np.ndarray, allowance: float
) -> ScanResult | None:
    """One left task joined on the caps its bounds keep, as ``scan_candidates``
    leaves cells (``.triples``, ``.hits``), or ``None``: they keep over
    :data:`DECLINE_SHARE`, or the task's state overruns ``allowance`` bytes.
    ``condition`` is a top-k or threshold condition, or a threshold floor per
    query row (a scalar serves every row)."""
    n_q, n = len(queries), len(part.ids)
    sizes = np.diff(part.starts)
    topk = isinstance(condition, TopKCondition)
    k = condition.k if topk else None
    held = STATE_BYTES * n_q * len(sizes)
    if held >= allowance or (topk and min(k, n) > DECLINE_SHARE * n):
        return None
    room = allowance - held
    s = queries @ part.axes[:, :-2].T
    found, kept, strip, blocks = [], 0, 0, 0
    if topk:
        rows, caps = _nearest_caps(s, sizes, min(k, n))
        cells = np.bincount(rows, weights=sizes[caps], minlength=n_q)
        strip = 4 * n_q * int(cells.max(initial=0))  # probe_lists' padded strip
        if strip > room:
            return None
        found.append(probe_lists(queries, part.rows, part.ids, part.starts, rows, caps, k=k))
        kept, blocks = int(cells.sum()), len(np.unique(caps))
        floors = _last_of_full_rows(found[0][0], found[0][2], n_q, k)[1]
        if condition.min_similarity is not None:
            floors = np.maximum(floors, np.float32(condition.min_similarity))
    elif isinstance(condition, ThresholdCondition):
        floors = np.float32(condition.threshold)
    else:
        floors = np.asarray(condition, np.float32)
    rows, caps = keep(part, s, floors)
    kept += int(sizes[caps].sum())
    run = max(1, int(min(RUN_CELLS, room // (2 * RUN_CELL_BYTES))))  # a run: < 2 * run cells
    if kept > DECLINE_SHARE * n_q * n or sizes[caps].max(initial=0) > run:
        return None
    hits, widest = probe_flat(part, queries, rows, caps, floors, run)
    if topk:
        triples = fold_topk(found + hits, n_q, k)
    else:
        hits = hits or [(rows, rows, np.empty(0, np.float32))]
        rows, ids, scores = (np.concatenate(column) for column in zip(*hits))
        order = np.lexsort((ids, rows))
        triples = rows[order], ids[order], scores[order]
    # Centre products count as evaluations; one run sits beside the state.
    return ScanResult(
        triples, triples, blocks=blocks + len(np.unique(caps)), cells=n_q * len(sizes) + kept,
        peak_bytes=held + max(strip, RUN_CELL_BYTES * widest),
    )
