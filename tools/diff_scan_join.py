"""Differential for scan joins: every representation, condition and way of
cutting the work, against the parent checkout and a float64 oracle.

``tools/diff_select.py`` is the E-selection half; this is the join half,
the script PRs 17-19 each wrote under ``/root/scratch`` and lost.  The same
seeded joins run through ``tensor_join``, ``tensor_join_fp16`` and
``quantized_tensor_join`` (int8, PQ) and every answer is recorded as a
digest of its ``(left id, right id)`` sequence plus its scores::

    git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout -q <rev>
    python tools/diff_scan_join.py --parent /root/scratch/parent
    REPRO_THREADS=1 python tools/diff_scan_join.py --emit one.json
    REPRO_THREADS=2 python tools/diff_scan_join.py --emit two.json && cmp one.json two.json

Cases: {fp32, fp16, int8, PQ} x {threshold, attained threshold, top-k,
top-k + ``min_similarity``, k >= n, a k-th place tied} x {exact-arithmetic
grid rows full of ties, random rows, every right row three times over (so
copies straddle any block edge), an empty and a one-row side} x {serial,
an engine of 1 and of 2 threads, the ``REPRO_THREADS`` engine, that engine
under a budget of 64 KiB a worker}, task floors lowered so the engines
really cut.  Two clustered tables (4,500 right rows around 48 directions)
join in fp32, int8 and PQ, on every condition and mode, and a third whose
3,000 left rows span several dense blocks, so that the cap-task cut (one
task for all of them, or one a block under the budget, some declining) is
compared too, on its plain top-k (its threshold and ``k >= n``
answers would be millions of pairs).  Every fp32 join
is offered the right side's cap partition (``repro.core.caps``) where this
checkout has one, and every int8 / PQ join where this checkout's
``quantized_tensor_join`` takes one: on the clustered tables it is kept,
and a task its bounds prune joins on the caps; every other table's
partition declines.

int8 and PQ run at default settings: every top-k row is proved by the
quantizer's error bound or rescanned at a fixed floor.

The auto family (``auto/...``) runs the planner with no strategy and an
IVF index registered on the right side of the two clustered tables and of
two with 9,000 right rows, on every condition and engine, from a cold
engine and after a forced scan cached the right side's caps: where the
caps are priced and win, the join leaves the index for the exact scan.
Every answer a scan gave is held to the oracle (a top-k to the int8 / PQ
set rule below).  Against the parent a case may differ only where it left
the index: by ids where the parent's index missed the oracle, else by
scores within ``SWAP_TOLERANCE``.

Against the oracle (NumPy float64, no ``repro``): on the grid tables ids,
order and scores are exact, and so are an int8 or PQ top-k's ids and
order on every table (each row holds the oracle's set of ids; two of
them whose float64 scores differ by no more than fp32 rounding may trade
places: a k past n orders all 1,300 rows);
elsewhere every emitted score is within the
representation's error of the float64 one, no row lacks a pair the oracle
ranks clearly above its k-th, and no threshold pair is clearly missing or
clearly spurious; a budgeted join of untied rows holds its peak within
the budget.  Against the parent: ids and order exact — except an int8 or
PQ top-k the parent got wrong (it kept a multiple of k candidates, no
proof) and this checkout gets right, counted apart; scores exact where
they are re-ranked (int8, PQ) or the arithmetic is (grid), within 1 ulp
of a unit score (2^-23) where the GEMM's own scores are emitted.  A join
that ran on the caps scores cells in other GEMMs than the parent's: each
row holds the parent's ids, where the two differ position by position
the pairs' float64 scores are within ``SWAP_TOLERANCE`` (a threshold's
extra or missing pairs within it of the threshold), and a pair's score
is within ``DIM x 2^-24`` of the parent's.
``--emit`` holds what must not depend on the thread count: id digests,
score digests where exact, and whether an int8 or PQ top-k equals the
oracle.  An exception digests as its type name.  Exit status 1 on any
difference.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIM, K = 16, 5
#: The budgeted mode's budget *per worker*: a budget is split over the
#: workers, and whether it can hold a row's candidate state must not
#: depend on how many there are.
BUDGET_BYTES = 64 * 1024
#: Slack for "clearly above / below": fp32 GEMM rounding at dim 16.
TOLERANCE = 1e-5
#: How far apart two pairs' float64 scores may be for an int8 / PQ top-k,
#: re-ranked in fp32, to order them the other way: a dim-16 dot product's
#: fp32 rounding, ``DIM`` unit roundoffs (~9.5e-7).
SWAP_TOLERANCE = DIM * 2.0**-24
#: One fp32 step of a unit-scale score (cosines live in [-1, 1]): how far
#: apart two GEMMs of different block shapes may leave an emitted score.
ULP = 2.0**-23
#: What the wide clustered table joins on: answers of a few pairs a row.
#: Not ``topk-min``: its 10th place is two pairs 4.4e-8 apart in float64
#: (row 1,270), which the fp32 scores of an int8 / PQ join on the caps
#: order the other way, so :func:`_meets_oracle`'s set rule cannot hold.
WIDE_CONDITIONS = ("topk",)
#: The auto family: the planner joins a clustered table with no strategy and
#: an IVF index ``(nlist, nprobe)`` registered on the right side, from a
#: cold engine and after a forced scan cached the right side's caps.  "ivf"
#: probes ``ejoin_vectors``' share of the rows, "fine" fewer rows in many
#: more lists (it misses).  The dense scan wins on the 4,500-row tables at
#: the parent already; on the 9,000-row ones the parent picks the index.
AUTO_INDEXES = {"ivf": (128, 8), "fine": (1024, 4)}


def _grid(np, n, seed):
    """Four +-1 entries a row: unit rows are +-0.5, every dot product a
    multiple of 0.25 — exact in fp16, fp32 and any summation order."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, DIM), dtype=np.float32)
    for row in out:
        row[rng.choice(DIM, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return out


def _tables(np):
    """name -> (left, right, exact arithmetic?)."""
    rng = np.random.default_rng(424)
    plain = lambda n: rng.standard_normal((n, DIM)).astype(np.float32)  # noqa: E731
    out = {}
    for seed in range(2):
        out[f"grid{seed}"] = (_grid(np, 70, 10 + seed), _grid(np, 330, 20 + seed), True)
        out[f"plain{seed}"] = (plain(150), plain(1300), False)
        out[f"dups{seed}"] = (plain(90), plain(300)[np.arange(900) // 3], False)
    for seed in range(2):
        out[f"clustered{seed}"] = (
            _clustered(np, 200, 30 + seed), _clustered(np, 4_500, 40 + seed), False
        )
    out["clustered-wide"] = (_clustered(np, 3_000, 50), _clustered(np, 4_500, 60), False)
    out["empty-left"] = (plain(0), plain(40), False)
    out["empty-right"] = (plain(40), plain(0), False)
    out["one-left"] = (plain(1), plain(700), False)
    out["one-right"] = (plain(130), plain(1), False)
    return out


def _clustered(np, n, seed):
    """Unit rows around 48 fixed directions (~0.97 to their own): a right
    side a cap partition prunes."""
    rng = np.random.default_rng(seed)
    around = _unit64(np, np.random.default_rng(7).standard_normal((48, DIM)))
    noise = rng.standard_normal((n, DIM)) * (0.25 / DIM**0.5)
    return _unit64(np, around[rng.integers(0, 48, n)] + noise).astype(np.float32)


def _unit64(np, rows):
    rows = rows.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms == 0, 1, norms)


def _conditions(np, scores):
    """label -> condition keywords, placed on this table's own scores."""
    n_right = scores.shape[1]
    ranked = np.sort(scores, axis=1) if scores.size else np.zeros((1, 1))
    conditions = {
        "thr": {"threshold": 0.35},
        "thr-attained": {"threshold": float(ranked[0, -min(3, ranked.shape[1])])},
        "topk": {"top_k": K},
        "topk-min": {"top_k": 2 * K, "min_similarity": 0.3},
        "k-ge-n": {"top_k": n_right + 7},
    }
    if ranked.shape[1] > K + 2:
        # The k at whose place the most rows tie (grid: nearly all).
        ties = [(ranked[:, -k] == ranked[:, -k - 1]).sum() for k in range(1, K + 3)]
        conditions["topk-tied"] = {"top_k": int(np.argmax(ties)) + 1}
    return conditions


def _oracle_ids(np, scores, cond):
    """The float64 answer's ``(left ids, right ids)``, in the joins' order.
    A top-k ranks scores rounded to 1e-12, so copies of one row, whose
    float64 products differ in the last bits, tie and go by id."""
    if "threshold" in cond:
        return np.nonzero(scores >= cond["threshold"])
    want = [[], []]
    for i, row in enumerate(scores):
        order = np.lexsort((np.arange(len(row)), -np.round(row, 12)))[: cond["top_k"]]
        if cond.get("min_similarity") is not None:
            order = order[row[order] >= cond["min_similarity"]]
        want[0] += [i] * len(order)
        want[1] += order.tolist()
    return want


def _meets_oracle(np, scores, cond, left_ids, right_ids) -> bool:
    """Whether a top-k has the float64 oracle's ids in its order.  Each
    row must hold the oracle's set of ids; within it, two pairs whose
    oracle scores differ, but by no more than fp32 rounding
    (``SWAP_TOLERANCE``), may trade places (a k past ``n`` orders every
    row); an exact tie must still go to the smaller id."""
    want_l, want_r = (np.asarray(ids, dtype=np.int64) for ids in _oracle_ids(np, scores, cond))
    if not np.array_equal(left_ids, want_l) or len(right_ids) != len(want_r):
        return False
    width = max(scores.shape[1], 1)
    if not np.array_equal(
        np.sort(left_ids * width + right_ids), np.sort(want_l * width + want_r)
    ):
        return False
    swapped = right_ids != want_r
    rounded = np.round(scores, 12)
    apart = np.abs(rounded[left_ids, right_ids] - rounded[want_l, want_r])[swapped]
    return bool(((apart > 0) & (apart <= SWAP_TOLERANCE)).all())


def _oracle_check(np, scores, cond, exact, slack, left_ids, right_ids, got):
    """Why this answer contradicts the float64 ``scores``, or ``None``."""
    true = scores[left_ids, right_ids]
    if exact:
        want = _oracle_ids(np, scores, cond)
        if not (np.array_equal(left_ids, want[0]) and np.array_equal(right_ids, want[1])):
            return "ids differ from the exact oracle"
        return None if np.array_equal(got, true.astype(np.float32)) else "scores inexact"
    if len(got) and np.abs(got - true).max() > slack:
        return f"score off by {np.abs(got - true).max():.2e}"
    keys = left_ids * max(scores.shape[1], 1) + right_ids
    if len(np.unique(keys)) != len(keys):
        return "duplicate pairs"
    if (np.diff(left_ids) < 0).any():
        return "left ids not ascending"
    floor = cond.get("threshold", cond.get("min_similarity"))
    if floor is not None and (true < floor - slack).any():
        return "a pair clearly under the floor"
    held = np.zeros(scores.shape, dtype=bool)
    held[left_ids, right_ids] = True
    if "threshold" in cond:
        missing = (scores >= floor + slack) & ~held
    else:
        k = min(cond["top_k"], scores.shape[1])
        kth = np.sort(scores, axis=1)[:, -k] if k else np.zeros(len(scores))
        missing = (scores >= kth[:, None] + slack) & ~held
        if floor is not None:
            missing &= scores >= floor + slack
        if floor is None and (np.bincount(left_ids, minlength=len(scores)) != k).any():
            return "a row without its k pairs"
    return "a pair clearly owed is missing" if missing.any() else None


def records(raw: bool) -> tuple[dict[str, dict], list[str]]:
    """``case -> {"ids", "scores"}`` plus the oracle's complaints.

    ``scores`` is a digest where the scores must not depend on how the
    work was cut, else ``None`` — or, under ``raw``, their fp32 bits.
    """
    import numpy as np

    from repro.core import ThresholdCondition, TopKCondition, tensor_join
    from repro.core.precision import precision_error_bound, tensor_join_fp16
    from repro.core.quantized_join import QuantizedRelation, quantized_tensor_join
    from repro.engine import ExecutionEngine
    from repro.vector import select
    from repro.vector.norms import normalize_rows

    try:
        from repro.core.caps import build_caps
    except ImportError:  # a checkout without cap partitions
        build_caps = None
    quantized_caps = "caps" in inspect.signature(quantized_tensor_join).parameters

    # Without this these joins are too small for an engine to cut
    # (tests/conftest.py::schedule_every_task).  WIDE_TASK_ROWS stays: the
    # parent has none, and the two sides cutting differently is the point.
    select.MIN_TASK_WORK = select.MIN_TASK_ROWS = 1

    def sha(*arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

    env_threads = ExecutionEngine().n_threads  # REPRO_THREADS
    engines = {
        "serial": lambda: (None, {}),
        "1t": lambda: (ExecutionEngine(n_threads=1), {}),
        "2t": lambda: (ExecutionEngine(n_threads=2), {}),
        "env": lambda: (ExecutionEngine(), {}),
        "budget": lambda: (
            ExecutionEngine(), {"buffer_budget_bytes": BUDGET_BYTES * env_threads}
        ),
    }
    out: dict[str, dict] = {}
    complaints: list[str] = []
    for name, (left, right, exact) in _tables(np).items():
        scores = _unit64(np, left) @ _unit64(np, right).T
        stores = {
            method: QuantizedRelation.build(right, method, m=4, ks=16, seed=3)
            for method in ("int8", "pq")
            if len(right)
        }
        offered = {}
        if build_caps is not None:
            offered["caps"] = build_caps(normalize_rows(right)) if len(right) else None
        joins = {
            "fp32": (tensor_join, right, offered, TOLERANCE),
            "fp16": (tensor_join_fp16, right, {}, precision_error_bound(DIM)),
            # Default settings: every top-k row proved or rescanned.
            **{
                method: (
                    quantized_tensor_join, stores.get(method, right),
                    {"method": method, **(offered if quantized_caps else {})}, TOLERANCE,
                )
                for method in ("int8", "pq")
            },
        }
        if name.startswith("clustered"):
            del joins["fp16"]
        for label, cond in _conditions(np, scores).items():
            if name == "clustered-wide" and label not in WIDE_CONDITIONS:
                continue
            condition = (
                ThresholdCondition(cond["threshold"]) if "threshold" in cond
                else TopKCondition(cond["top_k"], min_similarity=cond.get("min_similarity"))
            )
            for representation, (join, right_side, keywords, slack) in joins.items():
                for mode, make in engines.items():
                    case = f"{name}/{label}/{representation}/{mode}"
                    engine, shape = make()
                    try:
                        got = join(left, right_side, condition, engine=engine, **keywords, **shape)
                    except Exception as exc:
                        out[case] = {"ids": f"error:{type(exc).__name__}", "scores": None}
                        continue
                    # A clustered table's int8 / PQ scores come from cap
                    # GEMMs as its fp32 scores do: only the re-rank's are stable.
                    stable = exact or (
                        representation in ("int8", "pq") and not name.startswith("clustered")
                    )
                    out[case] = {
                        "ids": sha(got.left_ids.astype(np.int64), got.right_ids.astype(np.int64)),
                        "scores": sha(got.scores) if stable
                        else got.scores.view(np.int32).tolist() if raw else None,
                    }
                    if raw and "caps" in keywords:
                        # Cap tasks run, or "declined": no partition kept.
                        out[case]["caps"] = got.stats.extra.get("cap_tasks", "declined")
                    if raw and name.startswith("clustered") and len(got) <= 100_000:
                        out[case]["pairs"] = [got.left_ids.tolist(), got.right_ids.tolist()]
                    why = _oracle_check(
                        np, scores, cond, exact, slack,
                        got.left_ids, got.right_ids, got.scores,
                    )
                    if representation in ("int8", "pq") and "top_k" in cond:
                        out[case]["oracle"] = _meets_oracle(
                            np, scores, cond, got.left_ids, got.right_ids
                        )
                        if not out[case]["oracle"]:
                            why = why or "ids / order differ from the oracle"
                    if why:
                        complaints.append(f"{case}: {why}")
                    # Survivors of a tie-heavy block are data-dependent and
                    # not reserved for (TopKReducer.state_bytes_per_row): the
                    # budget is checked where scores do not tie.
                    if "buffer_budget_bytes" in shape and not name.startswith(("grid", "dups")) and (
                        got.stats.extra.get("peak_intermediate_bytes", 0)
                        > shape["buffer_budget_bytes"]
                    ):
                        complaints.append(f"{case}: over the buffer budget")
    _auto_records(np, out, complaints, raw, sha)
    return out, complaints


def _auto_tables(np) -> dict:
    tables = _tables(np)
    tables = {name: tables[name] for name in ("clustered0", "clustered1")}
    for seed in range(2):
        tables[f"clustered-ivf{seed}"] = (
            _clustered(np, 200, 70 + seed), _clustered(np, 9_000, 80 + seed), False
        )
    return tables


def _auto_records(np, out, complaints, raw, sha) -> None:
    """The auto family: ``auto/<index>/<table>/<condition>/<cold|cached>/
    <mode>``.  A scan's answer is held to the oracle (a top-k to the int8 /
    PQ set rule); ``path`` records whether the index answered."""
    from repro.embedding import HashingEmbedder
    from repro.engine import ExecutionEngine
    from repro.index import IVFFlatIndex
    from repro.query import Engine
    from repro.relational import Catalog, DataType, Field, Schema, Table

    def vec_table(key, vectors):
        schema = Schema.of(Field(key, DataType.INT64), Field("vec", DataType.TENSOR, dim=DIM))
        return Table.from_arrays(schema, {key: np.arange(len(vectors)), "vec": vectors})

    def make_engine(left, right, index):
        catalog = Catalog()
        catalog.register("l", vec_table("lid", left))
        catalog.register("r", vec_table("rid", right))
        engine = Engine(catalog)
        engine.models.register("m", HashingEmbedder(dim=DIM))
        engine.register_index("r", "vec", index)
        return engine

    def join(engine, strategy=None, **terms):
        query = engine.query("l").ejoin(
            "r", left_on="vec", right_on="vec", model="m", strategy=strategy, **terms,
        ).select(["lid", "rid", "similarity"])
        return query.execute(), query.last_report.join_stats[-1]

    executors = {
        "1t": lambda: ExecutionEngine(n_threads=1),
        "2t": lambda: ExecutionEngine(n_threads=2),
        "env": ExecutionEngine,
        "budget": lambda: ExecutionEngine(
            buffer_budget_bytes=BUDGET_BYTES * ExecutionEngine().n_threads
        ),
    }
    verdicts = {}
    for (lists, (nlist, nprobe)), (name, (left, right, _)) in itertools.product(
        AUTO_INDEXES.items(), _auto_tables(np).items()
    ):
        scores = _unit64(np, left) @ _unit64(np, right).T
        index = IVFFlatIndex(DIM, nlist=nlist, nprobe=nprobe, seed=0)
        index.add(right)
        warm = make_engine(left, right, index)
        join(warm, "parallel-tensor", top_k=K)  # caches the right side's caps
        for label, cond in _conditions(np, scores).items():
            for state, mode in itertools.product(("cold", "cached"), executors):
                case = f"auto/{lists}/{name}/{label}/{state}/{mode}"
                engine = warm if state == "cached" else make_engine(left, right, index)
                engine.executor = executors[mode]()
                try:
                    got, stats = join(engine, **cond)
                except Exception as exc:
                    out[case] = {"ids": f"error:{type(exc).__name__}", "scores": None, "path": None}
                    continue
                left_ids, right_ids = (got.array(c).astype(np.int64) for c in ("lid", "rid"))
                found = got.array("similarity")
                if "threshold" in cond:  # the optimizer may swap the sides
                    order = np.lexsort((right_ids, left_ids))
                    left_ids, right_ids, found = left_ids[order], right_ids[order], found[order]
                path = "index" if stats.strategy.startswith("index") else "scan"
                # Scores hang on how the engine cut the work: compared
                # with the parent's (--raw), not emitted.
                scored = sha(found)
                out[case] = {"ids": sha(left_ids, right_ids), "scores": scored if raw else None,
                             "path": path}
                if raw and len(found) <= 100_000:
                    out[case]["bits"] = found.view(np.int32).tolist()
                # Modes mostly agree: each distinct answer is checked once.
                answer = (name, label, path, out[case]["ids"], scored)
                if answer not in verdicts:
                    meets = None
                    if "top_k" in cond:
                        meets = _meets_oracle(np, scores, cond, left_ids, right_ids)
                    why = None
                    if path == "scan":  # an index is approximate: held to the parent only
                        why = _oracle_check(
                            np, scores, cond, False, TOLERANCE, left_ids, right_ids, found
                        ) or (meets is False and "ids / order differ from the oracle") or None
                    verdicts[answer] = meets, why
                meets, why = verdicts[answer]
                if meets is not None:
                    out[case]["oracle"] = meets
                if why:
                    complaints.append(f"{case}: {why}")


def _off_parent(np, tables, case: str, parent: dict, change: dict) -> str | None:
    """Why a join that ran on the caps is not the parent's answer up to
    fp32 rounding, or ``None``."""
    name, label = case.split("/")[:2]
    left, right, _ = tables[name]
    oracle = _unit64(np, left) @ _unit64(np, right).T
    cond = _conditions(np, oracle)[label]
    if "pairs" not in parent or "pairs" not in change:
        return None if change["ids"] == parent["ids"] else "ids differ, no pairs kept"
    (pl, pr), (cl, cr) = (np.array(side["pairs"], dtype=np.int64) for side in (parent, change))
    ps, cs = (np.array(side["scores"], dtype=np.int32).view(np.float32) for side in (parent, change))
    width = oracle.shape[1]
    if "threshold" in cond:
        # A pair either side of the threshold by fp32 rounding may differ.
        odd = np.setxor1d(pl * width + pr, cl * width + cr)
        if (np.abs(oracle.ravel()[odd] - cond["threshold"]) > SWAP_TOLERANCE).any():
            return "a pair clearly inside or outside the threshold differs"
    else:
        if not np.array_equal(pl, cl):
            return "a row holds another number of pairs"
        moved = pr != cr
        if (np.abs(oracle[pl[moved], pr[moved]] - oracle[cl[moved], cr[moved]]) > SWAP_TOLERANCE).any():
            return "ids differ beyond fp32 rounding"
    _, at_parent, at_change = np.intersect1d(
        pl * width + pr, cl * width + cr, return_indices=True
    )
    if np.abs(ps[at_parent] - cs[at_change]).max(initial=0.0) > SWAP_TOLERANCE:
        return "a score further than DIM x 2^-24 from the parent's"
    return None


def _apart(a: list[int], b: list[int]) -> float:
    """Largest difference between two lists of fp32 score bits."""
    import numpy as np

    as_scores = lambda bits: np.array(bits, dtype=np.int32).view(np.float32)  # noqa: E731
    return float(np.abs(as_scores(a) - as_scores(b)).max(initial=0.0))


def _emit(path: Path, raw: bool) -> int:
    out, complaints = records(raw)
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    for line in complaints:
        print("oracle:", line, file=sys.stderr)
    return 1 if complaints else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--emit", type=Path, help="write this checkout's digests here")
    parser.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        return _emit(args.emit, args.raw)
    if args.parent is None:
        parser.error("--parent DIR or --emit FILE is required")
    sides, status = {}, 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, root in (("parent", args.parent.resolve()), ("change", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
            emitted = Path(scratch) / f"{name}.json"
            # The parent's complaints are the parent's: counted, not shown.
            done = subprocess.run(
                [sys.executable, __file__, "--emit", str(emitted), "--raw"], env=env,
                stderr=subprocess.PIPE if name == "parent" else None, text=True,
            )
            if name == "parent":
                print(f"parent: {done.stderr.count('oracle:')} oracle complaints")
            else:
                status = done.returncode
            sides[name] = json.loads(emitted.read_text())
    assert sides["parent"].keys() == sides["change"].keys()
    import numpy as np

    tables = _tables(np)
    ids, fixed, scores, widest = [], [], [], 0.0
    capped, off, declined, existing = [], [], [], []
    by_representation = {"fp32": 0, "int8": 0, "pq": 0}
    auto = {"cases": 0, "moved": [], "fixed": [], "off": []}
    for case, change in sides["change"].items():
        parent = sides["parent"][case]
        if case.startswith("auto/"):
            auto["cases"] += 1
            if change["path"] != parent["path"]:
                auto["moved"].append(case)
            if change["ids"] != parent["ids"]:
                # Only where the parent's index missed and the scan meets.
                missed = parent.get("oracle") is False and change.get("oracle") is True
                (auto["fixed"] if missed else auto["off"]).append(case)
            elif change["scores"] != parent["scores"] and not (
                # A scan's GEMM rounds a cell other than the probe's did.
                case in auto["moved"] and "bits" in change
                and _apart(change["bits"], parent["bits"]) <= SWAP_TOLERANCE
            ):
                auto["off"].append(case)
            continue
        if "caps" in change and not case.startswith("clustered"):
            existing.append(case)
        if change.get("caps") not in (None, 0, "declined"):
            # Scored on the caps: the parent's answer up to fp32 rounding.
            capped.append(case)
            by_representation[case.split("/")[2]] += 1
            why = _off_parent(np, tables, case, parent, change)
            if why:
                off.append(f"{case}: {why}")
            continue
        if "caps" in change:
            declined.append(case)
        if change["ids"] != parent["ids"]:
            # Allowed only where the parent missed the oracle and this
            # checkout meets it: a quantized top-k the proof made exact.
            missed = parent.get("oracle") is False and change.get("oracle") is True
            (fixed if missed else ids).append(case)
        elif isinstance(change["scores"], list):
            apart = _apart(change["scores"], parent["scores"])
            widest = max(widest, apart)
            if apart > ULP:
                scores.append(case)
        elif change["scores"] != parent["scores"]:
            scores.append(case)
    unrefused = [case for case in existing if case not in declined]
    print(
        f"{len(sides['change'])} cases: {len(ids)} id / order differences {ids[:8]}, "
        f"{len(fixed)} int8 / PQ top-k the parent missed and this checkout does not, "
        f"{len(scores)} score differences {scores[:8]} "
        f"(GEMM-emitted scores at most {widest / ULP:.2f} ulp apart), oracle "
        f"{'clean' if status == 0 else 'COMPLAINTS (above)'}"
    )
    print(
        f"cap partitions: {len(capped)} cases ran the cap path ("
        + ", ".join(f"{rep} {n}" for rep, n in by_representation.items())
        + f"), {len(off)} of them off the parent beyond fp32 rounding {off[:4]}; "
        f"{len(declined)} cases declined, "
        f"{len(existing) - len(unrefused)} of the {len(existing)} on the existing tables "
        f"{unrefused[:4]}"
    )
    print(
        f"auto with an IVF index: {auto['cases']} cases, {len(auto['moved'])} moved off the "
        f"parent's path {auto['moved'][:4]}, {len(auto['fixed'])} id differences where the "
        f"parent's index missed the oracle and this checkout meets it {auto['fixed']}, "
        f"{len(auto['off'])} other differences {auto['off'][:8]}"
    )
    return 1 if ids or scores or off or unrefused or status or auto["off"] else 0


if __name__ == "__main__":
    sys.exit(main())
