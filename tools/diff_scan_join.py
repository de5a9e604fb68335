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
really cut.

Against the oracle (NumPy float64, no ``repro``): on the grid tables ids,
order and scores are exact; elsewhere every emitted score is within the
representation's error of the float64 one, no row lacks a pair the oracle
ranks clearly above its k-th, and no threshold pair is clearly missing or
clearly spurious; a budgeted join of untied rows holds its peak within
the budget.  Against the parent: ids and order exact; scores exact
where they are re-ranked (int8, PQ) or the arithmetic is (grid), within
1 ulp of a unit score (2^-23) where the GEMM's own scores are emitted.
``--emit`` holds what must not depend on the thread count: id digests,
and score digests where exact.  An exception digests as its type name.
Exit status 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
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
#: One fp32 step of a unit-scale score (cosines live in [-1, 1]): how far
#: apart two GEMMs of different block shapes may leave an emitted score.
ULP = 2.0**-23


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
    out["empty-left"] = (plain(0), plain(40), False)
    out["empty-right"] = (plain(40), plain(0), False)
    out["one-left"] = (plain(1), plain(700), False)
    out["one-right"] = (plain(130), plain(1), False)
    return out


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


def _oracle_check(np, scores, cond, exact, slack, left_ids, right_ids, got):
    """Why this answer contradicts the float64 ``scores``, or ``None``."""
    true = scores[left_ids, right_ids]
    if exact:
        if "threshold" in cond:
            want = np.nonzero(scores >= cond["threshold"])
        else:
            want = [[], []]
            for i, row in enumerate(scores):
                order = np.lexsort((np.arange(len(row)), -row))[: cond["top_k"]]
                if cond.get("min_similarity") is not None:
                    order = order[row[order] >= cond["min_similarity"]]
                want[0] += [i] * len(order)
                want[1] += order.tolist()
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
        joins = {
            "fp32": (tensor_join, right, {}, TOLERANCE),
            "fp16": (tensor_join_fp16, right, {}, precision_error_bound(DIM)),
            # Every row re-ranked: the exact answer, through the code scan.
            **{
                method: (
                    quantized_tensor_join, stores.get(method, right),
                    {"rerank_multiple": max(len(right), 1), "method": method}, TOLERANCE,
                )
                for method in ("int8", "pq")
            },
        }
        for label, cond in _conditions(np, scores).items():
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
                    stable = exact or representation in ("int8", "pq")
                    out[case] = {
                        "ids": sha(got.left_ids.astype(np.int64), got.right_ids.astype(np.int64)),
                        "scores": sha(got.scores) if stable
                        else got.scores.view(np.int32).tolist() if raw else None,
                    }
                    why = _oracle_check(
                        np, scores, cond, exact, slack,
                        got.left_ids, got.right_ids, got.scores,
                    )
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
    return out, complaints


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
            done = subprocess.run(
                [sys.executable, __file__, "--emit", str(emitted), "--raw"], env=env
            )
            if name == "change":  # the parent's complaints are the parent's
                status = done.returncode
            sides[name] = json.loads(emitted.read_text())
    assert sides["parent"].keys() == sides["change"].keys()
    ids, scores, widest = [], [], 0.0
    for case, change in sides["change"].items():
        parent = sides["parent"][case]
        if change["ids"] != parent["ids"]:
            ids.append(case)
        elif isinstance(change["scores"], list):
            apart = _apart(change["scores"], parent["scores"])
            widest = max(widest, apart)
            if apart > ULP:
                scores.append(case)
        elif change["scores"] != parent["scores"]:
            scores.append(case)
    print(
        f"{len(sides['change'])} cases: {len(ids)} id / order differences {ids[:8]}, "
        f"{len(scores)} score differences {scores[:8]} "
        f"(GEMM-emitted scores at most {widest / ULP:.2f} ulp apart), oracle "
        f"{'clean' if status == 0 else 'COMPLAINTS (above)'}"
    )
    return 1 if ids or scores or status else 0


if __name__ == "__main__":
    sys.exit(main())
