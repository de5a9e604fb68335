"""Cap bounds: skip the right rows of an exact scan join that cannot match.

A *cap partition* of the right side's unit rows proves rows out before the
GEMM scores them (Ram & Gray's cone trees, KDD 2012).  Cap ``c`` has a unit
centre and ``m``, its lowest member cosine; a unit query with ``s = q . c``
scores no member above ``ub = 1`` if ``s >= m``, else ``s m + sqrt(1 - s^2)
sqrt(1 - m^2)`` = ``cos(max(0, alpha - theta))``, float64 plus the margin:
a cap is kept when ``s`` reaches ``cos(theta + arccos floor)``.  A threshold
task keeps the ``(row, cap)`` pairs whose ``ub`` reaches it; a top-k task
each row's nearest caps until they hold ``k`` rows, then every cap whose
``ub`` reaches its k-th score (``prove_topk``'s rule), on ``probe_lists``.
The bound is on the exact score and a task scores its kept cells from
the unit rows, so the fp32, int8 and PQ scan joins share one partition.
Each constant quotes rows of ``tools/sweep_blocks.py --caps`` (one thread)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import get_config
from ..index.ivf import kmeans, probe_lists
from .conditions import TopKCondition
from .scan import PRESCREEN_MARGIN, ScanResult, _last_of_full_rows, fold_topk

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


@dataclass(frozen=True)
class CapPartition:
    """Unit rows grouped by cap: cap ``c`` is ``rows[starts[c]:starts[c +
    1]]``, source rows ``ids[...]``, float64 unit ``centres[c]``, and
    ``radius[c]`` its lowest member cosine ``m``."""

    rows: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    centres: np.ndarray
    radius: np.ndarray

    def cosines(self, queries: np.ndarray) -> np.ndarray:
        """``(n_queries, n_caps)`` centre cosines ``s``, float64."""
        return np.clip(queries.astype(np.float64) @ self.centres.T, -1.0, 1.0)

    def reach(self, floors) -> np.ndarray:
        """``s`` from which ``ub`` reaches ``floors`` (scalar or per row):
        ``ub >= f - margin`` iff ``s >= cos(theta + arccos(f - margin))``."""
        f, m = np.asarray(floors, np.float64)[..., None] - PRESCREEN_MARGIN, self.radius
        reach = m * f - np.sqrt(1.0 - m * m) * np.sqrt(np.maximum(1.0 - f * f, 0.0))
        return np.where(f > 1.0, np.inf, np.where(m <= -f, -np.inf, reach))


def build_caps(unit_rows: np.ndarray) -> CapPartition | None:
    """A source's caps — a seeded sample's spherical :func:`kmeans`, rows to
    their nearest centroid, recentred, measured — or ``None``: no gain."""
    n, n_caps = len(unit_rows), len(unit_rows) // ROWS_PER_CAP
    if n_caps < MIN_CAPS:
        return None
    rng = get_config().rng("caps")
    sample = np.sort(rng.choice(n, min(n, SAMPLE_PER_CAP * n_caps), replace=False))
    centroids = kmeans(unit_rows[sample], n_caps, n_iters=CAP_ITERS, rng=rng)
    assign = np.concatenate([  # 4,096 rows (~10 MB of scores) at a time
        np.argmax(unit_rows[lo : lo + 4096] @ centroids.T, axis=1) for lo in range(0, n, 4096)
    ])
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
    room = 4 * len(check) * (4 * len(radius) + DECLINE_SHARE * n)  # cosines + kept cells
    return part if cap_join(part, TopKCondition(8), check, room) is not None else None


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


def cap_join(
    part: CapPartition, condition, queries: np.ndarray, allowance: float
) -> ScanResult | None:
    """One left task joined on the caps its bounds keep, as ``scan_candidates``
    leaves cells (``.triples``, ``.hits``), or ``None``: they keep over
    :data:`DECLINE_SHARE`, or one row's strip overruns ``allowance`` bytes."""
    n_q, n = len(queries), len(part.ids)
    sizes = np.diff(part.starts)
    topk = isinstance(condition, TopKCondition)
    k = condition.k if topk else None
    held = 16 * n_q * len(sizes)  # cosines and their reach
    if held >= allowance or (topk and min(k, n) > DECLINE_SHARE * n):
        return None
    room = (allowance - held) / 4
    s = part.cosines(queries)

    def plan(rows, caps):
        """Pairs, cells a row, rows sliced narrowest first within ``room``."""
        cells = np.bincount(rows, weights=sizes[caps], minlength=n_q)
        order, slices, lo = np.argsort(cells, kind="stable"), [], 0
        if n_q and cells[order[-1]] > room:
            return rows, caps, cells, None
        while lo < n_q:
            cost = np.arange(1, n_q - lo + 1) * cells[order[lo:]]
            hi = lo + max(1, int(np.searchsorted(cost, room, side="right")))
            slices.append(np.sort(order[lo:hi]))
            lo = hi
        return rows, caps, cells, slices

    def probe(rows, caps, cells, slices, floors=-np.inf):
        found, where = [], np.full(n_q, -1)
        for group in slices:
            where[group] = np.arange(len(group))
            inside = where[rows] >= 0
            r, i, f = probe_lists(
                queries[group], part.rows, part.ids, part.starts, where[rows[inside]],
                caps[inside], k=k, floors=floors if np.ndim(floors) == 0 else floors[group],
            )
            found.append((group[r], i, f))
            where[group] = -1
        return found

    if topk:
        plans = [plan(*_nearest_caps(s, sizes, min(k, n)))]
        if plans[0][3] is None:
            return None
        found = [fold_topk(probe(*plans[0]), n_q, k)]
        floors = _last_of_full_rows(found[0][0], found[0][2], n_q, k)[1]
        if condition.min_similarity is not None:
            floors = np.maximum(floors, np.float32(condition.min_similarity))
    else:
        found, floors, plans = [], np.float32(condition.threshold), []
    plans.append(plan(*np.nonzero(s >= part.reach(floors))))
    kept = int(sum(cells.sum() for _, _, cells, _ in plans))
    if kept > DECLINE_SHARE * n_q * n or plans[-1][3] is None:
        return None
    found += probe(*plans[-1], floors)
    if topk:
        triples = fold_topk(found, n_q, k)
    else:
        rows, ids, scores = (np.concatenate(column) for column in zip(*found))
        order = np.lexsort((ids, rows))
        triples = rows[order], ids[order], scores[order]
    # Centre products count as evaluations; one slice at a time sits beside them.
    strips = max(len(g) * int(c[g].max(initial=0)) for _, _, c, slices in plans for g in slices)
    return ScanResult(
        triples, triples, blocks=sum(len(np.unique(caps)) for _, caps, _, _ in plans),
        cells=n_q * len(sizes) + kept, peak_bytes=held + 4 * strips,
    )
