"""Differential for string E-joins over time: one engine, a sequence of
feeds, every answer against the parent checkout and against a cold engine.

A top-k join of strings keeps each embed-once code's pairs per
registration of its right side (``ExecutionContext.topk_memo_for`` in
``algebra/physical_planner.py``), so a warm engine answers a key from
whichever earlier query scanned it.  This runs seeded op *sequences*
through ``QueryBuilder.ejoin(...).execute()`` on one engine — each op
re-registers a Zipf-drawn feed — and digests every answer twice: on that
warm engine, and on a cold engine built over the same tables and model
objects at that moment::

    git clone -q . ../parent && git -C ../parent checkout -q <rev>
    python tools/diff_ejoin_keys.py --parent ../parent
    REPRO_THREADS=1 python tools/diff_ejoin_keys.py --emit one.json
    REPRO_THREADS=2 python tools/diff_ejoin_keys.py --emit two.json && cmp one.json two.json

Sequences: {top-1, top-3, top-3 + ``min_similarity``, k past a four-row
right side, a threshold} x {the planner's pick, ``tensor``,
``parallel-tensor``, int8, PQ, fp16, a filtered right side, a tensor left
column, an index probe, an approximate index the planner may or may not
pick}, twelve ops each under two models in turn (the index cases under the
one the index holds): op 0
is an empty feed, op 1 one string five times, the rest Zipf draws from
catalog words, typos and strangers.  The catalog holds eight of its rows
twice (exact ties).  Op 6 re-registers the right side as a new table with
one row changed (and rebuilds the index); op 9 replaces the second model
by a new object.  Task floors are lowered so the engines really cut.

Reported: id / order differences (every column but the similarity)
against the parent and warm against cold, and the score cells that
differ with the widest gap in ulp.  Ops run under the replaced model are
counted apart against the parent, which answered them with the old
model's vectors.  ``--emit`` holds what must not depend on the thread
count: the id digests.  An exception digests as its type name.  Exit
status 1 on an id / order difference outside the replaced-model ops.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIM, OPS, FEED_ROWS = 16, 12, 30
REREGISTER_AT, REPLACE_AT = 6, 9
MODELS = ("m1", "m2")

CONDITIONS = {
    "top1": {"top_k": 1},
    "top3": {"top_k": 3},
    "top3-min": {"top_k": 3, "min_similarity": 0.5},
    "k-past-n": {"top_k": 5},  # on the four-row right side
    "thr": {"threshold": 0.55},
}
PATHS = {
    "auto": {},
    "tensor": {"strategy": "tensor"},
    "parallel": {"strategy": "parallel-tensor"},
    "int8": {"strategy": "tensor-int8"},
    "pq": {"strategy": "tensor-pq"},
    "fp16": {},
    "filtered": {},
    "tensor-left": {"left_on": "emb"},
    "index": {"strategy": "index"},
    "auto-index": {},
}
#: Paths with an index registered on the right side (built over m1).
INDEXED = ("index", "auto-index")


def _words(np, rng, n):
    letters = list("abcdefghijklmnop")
    out: set[str] = set()
    while len(out) < n:
        out.add("".join(rng.choice(letters, size=int(rng.integers(4, 9)))))
    return sorted(out)


def records() -> dict[str, dict]:
    """``case/op -> {"ids", "scores", "cold_ids", "cold_scores", "replaced"}``:
    id digests and fp32 score bits of the warm and the cold answer."""
    import numpy as np

    from repro.config import get_config
    from repro.embedding import HashingEmbedder
    from repro.index import FlatIndex, IVFFlatIndex
    from repro.obs.capture import result_digest
    from repro.query import Engine
    from repro.relational import Catalog, Col, DataType, Field, Schema, Table
    from repro.vector import select

    # Without this these joins are too small for an engine to cut
    # (tests/conftest.py::schedule_every_task).
    select.MIN_TASK_WORK = select.MIN_TASK_ROWS = 1

    rng = np.random.default_rng(2500)
    words = _words(np, rng, 64)
    catalog_words = words + words[:8]  # eight rows twice: exact ties
    pool = words[:12] + [w[:-1] + "x" for w in words[12:24]] + _words(np, rng, 16)
    zipf = 1.0 / np.arange(1, len(pool) + 1)
    zipf /= zipf.sum()
    feed_schema = Schema.of(
        Field("lid", DataType.INT64), Field("text", DataType.STRING),
        Field("emb", DataType.TENSOR, dim=DIM),
    )
    word_schema = Schema.of(Field("wid", DataType.INT64), Field("word", DataType.STRING))

    def word_table(names):
        return Table.from_arrays(word_schema, {"wid": np.arange(len(names)), "word": names})

    def feed_table(texts, seed):
        emb = np.random.default_rng(seed).standard_normal((len(texts), DIM))
        return Table.from_arrays(
            feed_schema,
            {"lid": np.arange(len(texts)), "text": texts, "emb": emb.astype(np.float32)},
        )

    def build_index(engine, right, path):
        index = FlatIndex(DIM)
        if path == "auto-index":  # approximate: a wrong pick shows
            index = IVFFlatIndex(DIM, nlist=max(1, right.num_rows // 8), nprobe=1, seed=0)
        index.add(engine.models.get("m1").embed_batch(right.array("word").tolist()))
        engine.register_index("words", "word", index)

    def answer(engine, path, cond, model):
        right = "words"
        if path == "filtered":
            right = engine.query("words").where(Col("wid") < 68)
        join = {"left_on": "text", **PATHS[path], **cond}
        query = engine.query("feed").ejoin(right, right_on="word", model=model, **join)
        try:
            out = query.execute()
        except Exception as exc:
            return f"error:{type(exc).__name__}", []
        ids = out.select([n for n in out.schema.names if n != "similarity"])
        return result_digest(ids), out.array("similarity").view(np.int32).tolist()

    out: dict[str, dict] = {}
    config = get_config()
    precision = config.default_precision
    try:
        for label, cond in CONDITIONS.items():
            right_words = catalog_words[:3] + catalog_words[:1] if label == "k-past-n" else catalog_words
            for path in PATHS:
                config.default_precision = "fp16" if path == "fp16" else precision
                case = f"{label}/{path}"
                seq = np.random.default_rng(zlib.crc32(case.encode()))
                models = {name: HashingEmbedder(dim=DIM, seed=5 + i) for i, name in enumerate(MODELS)}
                right = word_table(right_words)
                warm = Engine(Catalog())
                warm.catalog.register("words", right)
                for name, model in models.items():
                    warm.models.register(name, model)
                if path in INDEXED:
                    build_index(warm, right, path)
                replaced = False
                for op in range(OPS):
                    if op == REREGISTER_AT:
                        changed = list(right_words)
                        changed[1] = pool[-1]  # a stranger: some feed row's best match
                        right = word_table(changed)
                        warm.catalog.register("words", right, replace=True)
                        if path in INDEXED:
                            build_index(warm, right, path)
                    if op == REPLACE_AT and path not in INDEXED:  # the index holds m1's vectors
                        models["m2"] = HashingEmbedder(dim=DIM, seed=11)
                        warm.models.register("m2", models["m2"], replace=True)
                        replaced = True
                    if op == 0:
                        texts = []
                    elif op == 1:
                        texts = [pool[int(seq.integers(len(pool)))]] * 5
                    else:
                        texts = [pool[i] for i in seq.choice(len(pool), FEED_ROWS, p=zipf)]
                    feed = feed_table(texts, seed=op)
                    warm.catalog.register("feed", feed, replace=True)
                    model = "m1" if path in INDEXED else MODELS[op % 2]
                    cold = Engine(Catalog())
                    cold.catalog.register("words", right)
                    cold.catalog.register("feed", feed)
                    for name, obj in models.items():
                        cold.models.register(name, obj)
                    if path in INDEXED:
                        build_index(cold, right, path)
                    ids, scores = answer(warm, path, cond, model)
                    cold_ids, cold_scores = answer(cold, path, cond, model)
                    out[f"{case}/op{op:02d}"] = {
                        "ids": ids, "scores": scores,
                        "cold_ids": cold_ids, "cold_scores": cold_scores,
                        "replaced": replaced and model == "m2",
                    }
    finally:
        config.default_precision = precision
    return out


def _ulps(a: list[int], b: list[int]) -> tuple[int, int]:
    """``(cells that differ, widest gap in ulp)`` of two fp32 bit lists."""
    import numpy as np

    def ordered(bits):  # fp32 bits -> integers in the floats' order
        bits = np.asarray(bits, dtype=np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

    gap = np.abs(ordered(a) - ordered(b)) if len(a) == len(b) else np.zeros(0)
    return int(np.count_nonzero(gap)), int(gap.max(initial=0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--emit", type=Path, help="write this checkout's digests here")
    parser.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        out = records()
        if not args.raw:  # GEMM-emitted scores depend on how the work was cut
            out = {case: {k: v for k, v in r.items() if "scores" not in k} for case, r in out.items()}
        args.emit.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
        return 0
    if args.parent is None:
        parser.error("--parent DIR or --emit FILE is required")
    sides = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, root in (("parent", args.parent.resolve()), ("change", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
            emitted = Path(scratch) / f"{name}.json"
            subprocess.run(
                [sys.executable, __file__, "--emit", str(emitted), "--raw"], env=env, check=True
            )
            sides[name] = json.loads(emitted.read_text())
    change, parent = sides["change"], sides["parent"]
    assert change.keys() == parent.keys()
    normal = [case for case in change if not change[case]["replaced"]]
    apart = [case for case in change if change[case]["replaced"]]

    def compare(cases, a, b, a_ids="ids", b_ids="ids", a_s="scores", b_s="scores"):
        ids = [case for case in cases if a[case][a_ids] != b[case][b_ids]]
        cells = total = widest = 0
        for case in cases:
            if a[case][a_ids] == b[case][b_ids]:
                n, gap = _ulps(a[case][a_s], b[case][b_s])
                cells, total, widest = cells + n, total + len(a[case][a_s]), max(widest, gap)
        return ids, f"{cells} of {total}", widest

    rows = {
        "change vs parent": compare(normal, change, parent),
        "change warm vs cold": compare(list(change), change, change, "ids", "cold_ids", "scores", "cold_scores"),
        "parent warm vs cold": compare(list(parent), parent, parent, "ids", "cold_ids", "scores", "cold_scores"),
    }
    print(f"{len(change)} ops ({len(apart)} under a replaced model, counted apart)")
    for label, (ids, cells, widest) in rows.items():
        print(f"  {label}: {len(ids)} id / order differences {ids[:6]}, "
              f"{cells} score cells differ (widest {widest} ulp)")
    replaced_ids, _, _ = compare(apart, change, parent)
    print(f"  replaced-model ops where the parent answered otherwise: {len(replaced_ids)} of {len(apart)}")
    return 1 if rows["change vs parent"][0] or rows["change warm vs cold"][0] else 0


if __name__ == "__main__":
    sys.exit(main())
