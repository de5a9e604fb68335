"""Cap bounds: skip the right rows of an exact scan join that cannot match.

A *cap partition* of the right side's unit rows proves rows out before the
GEMM scores them (Ram & Gray's cone trees, KDD 2012).  Cap ``c`` has a unit
centre and ``m``, its lowest member cosine; a unit query with ``s = q . c``
scores no member above ``ub = 1`` if ``s >= m``, else ``s m + sqrt(1 - s^2)
sqrt(1 - m^2)`` = ``cos(max(0, alpha - theta))``.  A cap is kept when ``ub``
reaches ``f = floor - margin``, tested in fp32 as one centre GEMM plus a
rank-2 update (:func:`keep`).  A threshold task keeps the ``(row, cap)``
pairs that reach it; a top-k task each row's nearest caps until they hold
``k`` rows (phase 1), then every cap that reaches its k-th score (phase 2,
``prove_topk``'s rule).  A task of many rows probes cap by cap
(``probe_lists``, :func:`probe_flat`) on a cap-ordered copy of the rows,
made by the first such task; one of a row or two — a served selection —
gathers each row's kept members from the unit rows and scores them with
one GEMV (:func:`probe_rows`).  The bound is on the exact score and a task
scores its kept cells from the unit rows, so the fp32, int8 and PQ scan
joins share one partition.  Each constant quotes rows of
``tools/sweep_blocks.py --caps`` (one thread)."""

from __future__ import annotations

import threading
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
#: misses have paid for it.  A build that copies no rows (measured from
#: gathered members) is no cheaper: on a slower 2-vCPU Xeon, 2.27-2.80 s
#: against the copying build's 2.44-2.69 s, over 8.3-11.3 ms a selection
#: (250-290, min of 3 builds and of 40 selections, alternated runs).
SELECTIONS_PER_BUILD = 345

#: Cells phase 2 compares at once: 256 KB of scores, few calls, in cache.
RUN_CELLS = 1 << 16

#: Bytes a ``(left row, cap)`` pair holds in the bound test (fp32 cosine,
#: its rank-2 update, a mask byte) and a phase-2 cell in its run (score in
#: the GEMM output and the run, the row's floor, a mask byte).
STATE_BYTES, RUN_CELL_BYTES = 9, 13


@dataclass(frozen=True)
class CapPartition:
    """Unit rows grouped by cap: cap ``c``'s ``sizes[c]`` members are rows
    ``ids[starts[c]:starts[c + 1]]`` of ``unit``, the source's own unit-row
    matrix (not a copy), with float64 unit ``centres[c]`` and ``radius[c]``
    its lowest member cosine ``m``.  ``axes[c]`` is ``[centre, m, sqrt(1 -
    m^2)]`` in fp32: what :func:`keep` multiplies.  ``kept_share`` is the
    share of a top-8 join's cells the bounds kept when :func:`build_caps`
    checked the partition on its own rows.  The cap-ordered copy of the
    members that a cap-major probe reads (:meth:`packed`) is made under
    ``lock`` — a planner's partition takes its source's build lock — by the
    first such probe: a source that only serves selections never holds it."""

    unit: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    centres: np.ndarray
    radius: np.ndarray
    kept_share: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    axes: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _packed: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.radius
        axes = np.column_stack((self.centres, m, np.sqrt(1.0 - m * m)))
        object.__setattr__(self, "axes", axes.astype(np.float32))
        object.__setattr__(self, "sizes", np.diff(self.starts))

    def packed(self) -> np.ndarray:
        """The members cap after cap (cap ``c`` is ``packed()[starts[c]:
        starts[c + 1]]``), copied from ``unit`` once."""
        if self._packed is None:
            with self.lock:
                if self._packed is None:
                    object.__setattr__(self, "_packed", self.unit[self.ids])
        return self._packed

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
    their nearest centroid, recentred, measured — or ``None``: no gain.
    Each cap is measured on its members gathered from ``unit_rows``, and the
    check runs row by row, so the build copies no rows."""
    n, n_caps = len(unit_rows), len(unit_rows) // ROWS_PER_CAP
    if n_caps < MIN_CAPS:
        return None
    rng = get_config().rng("caps")
    sample = np.sort(rng.choice(n, min(n, SAMPLE_PER_CAP * n_caps), replace=False))
    centroids = kmeans(unit_rows[sample], n_caps, n_iters=CAP_ITERS, rng=rng)
    assign = nearest_centroids(unit_rows, centroids)
    ids, counts = np.argsort(assign, kind="stable"), np.bincount(assign)
    starts = np.concatenate(([0], np.cumsum(counts[counts > 0])))
    centres, radius = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        members = unit_rows[ids[lo:hi]].astype(np.float64)
        # A zero mean stays a zero centre: s = m = 0, a bound of 1.
        centre = members.sum(axis=0)
        centres.append(centre / max(np.linalg.norm(centre), 1e-300))
        radius.append((members @ centres[-1]).min())
    part = CapPartition(unit_rows, ids, starts, np.array(centres), np.clip(radius, -1.0, 1.0))
    check = unit_rows[rng.choice(n, min(n, 256), replace=False)]
    scan = cap_join(part, TopKCondition(8), check, np.inf, probe="rows")
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
    return np.divmod(np.flatnonzero(s >= -fp32_dot_slack(part.unit.shape[1])), s.shape[1])


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
    first, cells = part.starts[caps], part.sizes[caps]
    held = np.concatenate(([0], np.cumsum(cells)))
    ends = {*(np.flatnonzero(np.diff(held[:-1] // run)) + 1).tolist(), len(rows)}
    edges = np.union1d(np.flatnonzero(np.diff(caps)) + 1, [0, *ends]).tolist()
    found, blocks, lo, widest = [], [], 0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        cap = part.packed()[first[a] : first[a] + cells[a]]
        blocks.append((queries[rows[a:b]] @ cap.T).ravel())
        if b in ends:
            scores = np.concatenate(blocks)
            hit = np.flatnonzero(scores >= np.repeat(floor[lo:b], cells[lo:b]))
            pair = lo + np.searchsorted(held[lo + 1 : b + 1] - held[lo], hit, side="right")
            col = hit - held[pair] + held[lo]
            found.append((rows[pair], part.ids[first[pair] + col], scores[hit]))
            widest, blocks, lo = max(widest, len(scores)), [], b
    return found, widest


def probe_rows(part: CapPartition, queries: np.ndarray, rows, caps) -> list[tuple]:
    """The row-major probe: each query row's cells on its ``(row, cap)``
    pairs (sorted by row) as ``(ids, scores)``, the members gathered from
    the unit rows through ``ids`` in one step and scored by one GEMV."""
    first, cells = part.starts[caps], part.sizes[caps]
    held = np.concatenate(([0], np.cumsum(cells)))
    ids = part.ids[np.repeat(first - held[:-1], cells) + np.arange(held[-1])]
    cuts = held[np.searchsorted(rows, np.arange(len(queries) + 1))].tolist()
    return [
        (ids[a:b], np.take(part.unit, ids[a:b], axis=0) @ q)
        for q, a, b in zip(queries, cuts, cuts[1:])
    ]


def _row_triples(first, second, kth, floors, k) -> tuple:
    """The rows' triples from their row-major cells: a top-k row's ``k``
    best of its phase-1 cells down to its ``kth`` score and its phase-2
    cells over its floor, by ``(score desc, id asc)``; a threshold row's
    cells over its floor by id."""
    found = []
    for row, (ids, scores) in enumerate(second):
        hit = scores >= floors[row]
        ids, scores = ids[hit], scores[hit]
        if first:
            ids1, scores1 = first[row]
            top = scores1 >= kth[row]
            ids, scores = np.concatenate((ids1[top], ids)), np.concatenate((scores1[top], scores))
            order = np.lexsort((ids, -scores))[:k]
        else:
            order = np.argsort(ids, kind="stable")
        found.append((np.full(len(order), row), ids[order], scores[order]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _by_rows(n_q: int, caps: np.ndarray, probe: str | None) -> bool:
    """Whether a task of ``n_q`` query rows probes row by row, given
    ``caps``, the ``(row, cap)`` pairs it holds (a top-k task's nearest
    caps, a threshold task's kept ones): while its other rows are no more
    than the caps a row holds, ``n_q - 1 <= pairs / n_q``.  A row costs one
    gather and one GEMV, a cap one GEMM, and the cap order adds a strip,
    a select and folds; ``tools/sweep_blocks.py --caps`` (one thread, ms
    rows / caps order; ``serve_scan``'s 150,000 x 128 at its served top-10's
    ``k + 32``, ``ejoin_vectors``' 40,000 x 128 at top-8):

    - one row: 1.04 / 1.37 (top-42), 0.53 / 0.59 (threshold, 11 caps); 0.29
      / 0.56 and 0.26 / 0.30 on 40,000 rows;
    - two rows: 1.16 / 1.38, 0.97 / 1.07; 0.51 / 0.92, 0.43 / 0.49;
    - 8 rows: 3.10 / 2.65 (top-42, caps picked), 1.83 / 1.98 (threshold,
      73 caps, rows picked); 1.18 / 1.40 at top-8, where the rule picks caps;
    - 32 rows: 14.0 / 9.05, 5.51 / 5.59; 3.61 / 3.22, 1.93 / 1.86;
    - 1,000 rows: 510 / 149, 144 / 60.9; 80.8 / 27.5, 50.6 / 17.7.

    So the orders cross at 4-32 rows, between a served group (1-2 rows)
    and a join task (500-1,000); the rule errs toward the cap order for a
    top-k task of 3-8 rows (by at most 0.4 ms), whose phase-2 caps it
    cannot count yet."""
    return probe == "rows" if probe else n_q * (n_q - 1) <= len(caps)


def cap_join(
    part: CapPartition, condition, queries: np.ndarray, allowance: float,
    probe: str | None = None,
) -> ScanResult | None:
    """One left task joined on the caps its bounds keep, as ``scan_candidates``
    leaves cells (``.triples``, ``.hits``), or ``None``: they keep over
    :data:`DECLINE_SHARE`, or the task's state overruns ``allowance`` bytes.
    ``condition`` is a top-k or threshold condition, or a threshold floor per
    query row (a scalar serves every row).

    A task of a few rows probes row by row (:func:`probe_rows`), one of many
    cap by cap (``probe_lists``, :func:`probe_flat`) on the cap-ordered
    copy (:func:`_by_rows`); ``probe`` (``"rows"`` / ``"caps"``) forces the
    order.  Both orders keep the same pairs and charge their widest block —
    a row's gathered members, a padded strip or a run — beside the bound
    state."""
    n_q, n = len(queries), len(part.ids)
    sizes = part.sizes
    topk = isinstance(condition, TopKCondition)
    k = condition.k if topk else None
    held = STATE_BYTES * n_q * len(sizes)
    if held >= allowance or (topk and min(k, n) > DECLINE_SHARE * n):
        return None
    room = allowance - held
    member_bytes = 4 * (part.unit.shape[1] + 1) + 8  # a gathered row, its score and id
    s = queries @ part.axes[:, :-2].T
    first, found, kept, blocks, peak = [], [], 0, 0, 0
    if topk:
        rows, caps = _nearest_caps(s, sizes, min(k, n))
        by_rows = _by_rows(n_q, caps, probe)
        cells = np.bincount(rows, weights=sizes[caps], minlength=n_q)
        kept = int(cells.sum())
        if by_rows:
            peak = member_bytes * int(cells.max(initial=0))
            if peak > room:
                return None
            first = probe_rows(part, queries, rows, caps)
            kth = np.array([np.partition(f, len(f) - k)[len(f) - k] for _, f in first], np.float32)
            floors, blocks = kth, n_q
        else:
            peak = 4 * n_q * int(cells.max(initial=0))  # probe_lists' padded strip
            if peak > room:
                return None
            packed, ids, starts = part.packed(), part.ids, part.starts
            found.append(probe_lists(queries, packed, ids, starts, rows, caps, k=k))
            floors = _last_of_full_rows(found[0][0], found[0][2], n_q, k)[1]
            blocks = len(np.unique(caps))
        if condition.min_similarity is not None:
            floors = np.maximum(floors, np.float32(condition.min_similarity))
    elif isinstance(condition, ThresholdCondition):
        floors = np.float32(condition.threshold)
    else:
        floors = np.asarray(condition, np.float32)
    rows, caps = keep(part, s, floors)
    if not topk:
        by_rows = _by_rows(n_q, caps, probe)
    kept += int(sizes[caps].sum())
    if kept > DECLINE_SHARE * n_q * n:
        return None
    if by_rows:
        cells = np.bincount(rows, weights=sizes[caps], minlength=n_q)
        peak = max(peak, member_bytes * int(cells.max(initial=0)))
        if peak > room:
            return None
        second = probe_rows(part, queries, rows, caps)
        floors = np.broadcast_to(floors, (n_q,))
        triples = _row_triples(first, second, kth if topk else None, floors, k)
        blocks += int(np.count_nonzero(cells))
    else:
        run = max(1, int(min(RUN_CELLS, room // (2 * RUN_CELL_BYTES))))  # a run: < 2 * run cells
        if sizes[caps].max(initial=0) > run:
            return None
        hits, widest = probe_flat(part, queries, rows, caps, floors, run)
        peak, blocks = max(peak, RUN_CELL_BYTES * widest), blocks + len(np.unique(caps))
        if topk:
            triples = fold_topk(found + hits, n_q, k)
        else:
            hits = hits or [(rows, rows, np.empty(0, np.float32))]
            rows, ids, scores = (np.concatenate(column) for column in zip(*hits))
            order = np.lexsort((ids, rows))
            triples = rows[order], ids[order], scores[order]
    # Centre products count as evaluations; the widest block sits beside the state.
    return ScanResult(
        triples, triples, blocks=blocks, cells=n_q * len(sizes) + kept, peak_bytes=held + peak,
        probe="rows" if by_rows else "caps",
    )
