"""The four workloads: frozen sizes, seeded inputs, set-up, operations, checks.

Every input is generated here from ``--seed`` with NumPy alone (never by
``repro.workloads``); the program sees only the generated tables and query
vectors, and is driven only through its public API.  All four loops are
closed: the caller waits for each reply before it sends the next request
(the serving workloads keep exactly two requests outstanding = ``nproc``).

Sizes are frozen, the operation count of the timed phase (``n_ops``) among
them: the same count on every commit and every run, so both sides of a
comparison do the same work and a slow box makes the run longer, not smaller.
"""

from __future__ import annotations

import asyncio
import gc
import time
import traceback
from collections import Counter

import numpy as np

from repro import (
    AsyncQueryService,
    Catalog,
    Col,
    DataType,
    Engine,
    FastTextModel,
    Field,
    HashingEmbedder,
    Schema,
    Table,
)
from repro.index import IVFFlatIndex

import oracle
from harness import SLICES, OpSample, log, sha256_arrays

#: Recall floor below which a run fails; ``topk_auto`` may be answered by
#: the approximate IVF index and gets the lower floor.
RECALL_FLOOR = 0.99
RECALL_FLOOR_APPROX = 0.90

#: Frozen sizes.  ``n_ops`` is the builder's measured rate at nominal box
#: speed times the 15 s of ``BENCHMARK.json`` ``run_seconds`` (README "Frozen
#: sizes"), in whole rounds of the workload's shapes per slice.
FULL = {
    "ejoin_strings": dict(
        catalog=8_000, pool=50_000, batch=3_000, dim=64, sentences=400,
        warmup_ops=20, setup_repeats=3, n_ops=360, checked_ops=6,
        checked_rows=256,
    ),
    "ejoin_vectors": dict(
        n_left=1_000, n_right=40_000, dim=128, clusters=256, left_batches=8,
        nlist=128, nprobe=8, top_k=8, warmup_ops=8, setup_repeats=3,
        n_ops=80, checked_ops=16, checked_rows=48,
    ),
    "serve_scan": dict(
        n_corpus=150_000, dim=128, clusters=256, top_k=10, range_rows=10,
        in_flight=2, warmup_ops=40, setup_repeats=7, n_ops=3_760,
        checked_ops=48, identity_ops=16,
    ),
    "serve_hot": dict(
        n_corpus=150_000, dim=128, clusters=256, top_k=10, pool=128, zipf=1.1,
        in_flight=1, setup_repeats=3, n_ops=36_000, write_every=3_600,
        checked_ops=48, identity_ops=16,
    ),
}

#: Toy sizes for ``--smoke``: every code path, no meaningful numbers.
SMOKE = {
    "ejoin_strings": dict(
        catalog=300, pool=1_000, batch=120, dim=16, sentences=40,
        warmup_ops=2, setup_repeats=2, n_ops=20, checked_ops=2,
        checked_rows=32,
    ),
    "ejoin_vectors": dict(
        n_left=64, n_right=1_500, dim=16, clusters=16, left_batches=2,
        nlist=8, nprobe=4, top_k=4, warmup_ops=4, setup_repeats=2,
        n_ops=40, checked_ops=4, checked_rows=16,
    ),
    "serve_scan": dict(
        n_corpus=20_000, dim=16, clusters=16, top_k=5, range_rows=5,
        in_flight=2, warmup_ops=8, setup_repeats=2, n_ops=40,
        checked_ops=8, identity_ops=4,
    ),
    "serve_hot": dict(
        n_corpus=20_000, dim=16, clusters=16, top_k=5, pool=16, zipf=1.1,
        in_flight=1, setup_repeats=2, n_ops=80, write_every=8, checked_ops=8,
        identity_ops=4,
    ),
}

#: Fresh operations the traced run replays through the ladders, in groups
#: between two probe readings; each group ends with an operation whose top
#: rung runs without spans (the tracing-overhead reference).
LADDER_OPS = 32
GROUP_TRACED = 4
GROUP_UNTRACED = 1
FRESH_OPS = LADDER_OPS // GROUP_TRACED * (GROUP_TRACED + GROUP_UNTRACED)
#: A serving ladder needs up to three uncached vectors per fresh operation.
FRESH_VECTORS = 3 * FRESH_OPS

MODEL = "m"  # registry name of the workload's embedding model


def _unit32(x: np.ndarray) -> np.ndarray:
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def clustered(rng, n: int, centers: np.ndarray, spread: float = 0.6) -> np.ndarray:
    """``n`` unit vectors scattered around randomly chosen ``centers``.

    The noise has norm ~``spread`` against a unit centre, so members of one
    cluster score ~0.73 against each other and ~0 against other clusters:
    structure an IVF index and a quantizer can use, as real embeddings have.
    """
    dim = centers.shape[1]
    noise = rng.standard_normal((n, dim), dtype=np.float32) * (spread / dim**0.5)
    # Equal-sized clusters in a seeded order: the seed moves every vector
    # but not how much work an index list or a range query holds.
    member_of = rng.permutation(np.arange(n) % len(centers))
    return _unit32(centers[member_of] + noise)


def zipf_draws(rng, n: int, items: int, exponent: float) -> np.ndarray:
    """``n`` draws over ``items`` with exactly Zipf-proportional counts.

    Largest-remainder counts in a seeded order: the seed changes which
    request comes when, not how many distinct items a run asks for.
    """
    weights = 1.0 / np.arange(1, items + 1) ** exponent
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    short = n - counts.sum()
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    return rng.permutation(np.repeat(np.arange(items), counts))


def _kth_best_threshold(queries, base, k: int) -> float:
    """Threshold at which a query matches about ``k`` rows of ``base``."""
    scores = oracle.scores64(queries, base)
    return float(np.sort(scores, axis=1)[:, -k].mean())


def _even_sample(n: int, count: int, *, step: int = 1) -> list[int]:
    """``count`` indices spread evenly over ``range(0, n, step)``."""
    slots = range(0, n, step)
    count = min(count, len(slots))
    stride = (len(slots) - 1) / max(count - 1, 1)
    return sorted({slots[round(i * stride)] for i in range(count)})


class Workload:
    """Common protocol of the four workloads."""

    name = ""
    shapes: tuple[str, ...] = ()

    def __init__(self, sizes: dict, seed: int) -> None:
        self.sizes = sizes
        self.n_ops = sizes["n_ops"]
        # Whole rounds of the shapes in every slice: each slice does the
        # same work, so the slices' rates can be compared.
        if self.n_ops % (len(self.shapes) * SLICES):
            raise ValueError(f"{self.name}: n_ops must fill {SLICES} slices with "
                             f"whole rounds of {len(self.shapes)} shapes")
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.kept: dict[int, object] = {}
        self.keep: set[int] = set()
        self.input_sha256 = ""
        self._reported_failure = False

    def plan_checks(self, n_ops: int) -> None:
        """Choose which of the first ``n_ops`` operations keep their result
        for the oracle (evenly spread over the phase about to run)."""
        self.keep = set(_even_sample(n_ops, self.sizes["checked_ops"]))

    # -- to be provided ---------------------------------------------------
    def setup(self) -> None:
        """Everything the program does before the first timed operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started and let go of what it built."""

    def setup_again(self) -> None:
        """A further set-up from scratch; releasing the previous one first
        is part of it, as it would be for a restarting client."""
        self.teardown()
        gc.collect()
        self.setup()

    def shape_of(self, op: int) -> str:
        return self.shapes[op % len(self.shapes)]

    def operate(self, op: int):
        """Run operation ``op`` through the program; returns its result."""
        raise NotImplementedError

    def run_ops(self, lo: int, hi: int) -> tuple[float, list[OpSample]]:
        """Run operations ``[lo, hi)`` one after the other; wall seconds and
        per-op samples.  Results of the operations in ``keep`` are kept."""
        samples = []
        start = time.perf_counter()
        for i in range(lo, hi):
            t0 = time.perf_counter()
            try:
                out, ok = self.operate(i), True
            except Exception:
                self._failed(f"op {i} ({self.shape_of(i)})")
                out, ok = None, False
            samples.append(OpSample(self.shape_of(i), time.perf_counter() - t0, ok))
            if i in self.keep:
                self.kept[i] = out
        return time.perf_counter() - start, samples

    def verify(self) -> dict:
        """Check kept results: ``recall``, ``checked`` and ``failed``."""
        raise NotImplementedError

    # -- shared -------------------------------------------------------------
    def _failed(self, what: str) -> None:
        if not self._reported_failure:
            self._reported_failure = True
            log(f"[{self.name}] operation failed: {what}\n{traceback.format_exc()}")


# ---------------------------------------------------------------------------
# ejoin_strings — online cleaning of a dirty string feed (paper II-A-2, Fig. 5)
# ---------------------------------------------------------------------------

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
VIEWS_CUT = 500  # views are uniform on [0, 1000): the filter keeps ~50%


def _make_words(rng, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        picks = rng.integers(len(_SYLLABLES), size=int(rng.integers(3, 6)))
        words.add("".join(_SYLLABLES[i] for i in picks))
    return sorted(words)


def _dirty(rng, word: str) -> str:
    """One edit: drop, double or swap a character."""
    i = int(rng.integers(len(word) - 1))
    op = int(rng.integers(3))
    if op == 0:
        return word[:i] + word[i + 1 :]
    if op == 1:
        return word[:i] + word[i] + word[i:]
    return word[:i] + word[i + 1] + word[i] + word[i + 2 :]


class EjoinStrings(Workload):
    name = "ejoin_strings"
    shapes = ("clean_feed",)

    _FEED = Schema(
        (
            Field("text", DataType.STRING),
            Field("views", DataType.INT64),
            Field("day", DataType.INT64),
        )
    )

    def __init__(self, sizes, seed):
        super().__init__(sizes, seed)
        rng, s = self.rng, sizes
        self.words = _make_words(rng, s["catalog"])
        self.truth = rng.integers(s["catalog"], size=s["pool"])  # variant -> word id
        self.pool = [_dirty(rng, self.words[w]) for w in self.truth]
        self.sentences = [
            [self.words[i] for i in rng.integers(min(600, s["catalog"]), size=8)]
            for _ in range(s["sentences"])
        ]
        n_batches = s["warmup_ops"] + self.n_ops + FRESH_OPS
        self.draws = zipf_draws(
            rng, n_batches * s["batch"], s["pool"], 1.0
        ).reshape(n_batches, s["batch"])
        self.views = rng.integers(0, 1000, size=(n_batches, s["batch"]))
        self.days = rng.integers(0, 30, size=(n_batches, s["batch"]))
        self.input_sha256 = sha256_arrays(
            self.words, self.pool, self.sentences, self.draws, self.views, self.days
        )
        # Building the client-side Table objects is not the program's work.
        self.warm_tables = [self._table(b) for b in range(s["warmup_ops"])]
        self.tables = [
            self._table(s["warmup_ops"] + i) for i in range(self.n_ops + FRESH_OPS)
        ]

    def _table(self, batch: int) -> Table:
        return Table.from_arrays(
            self._FEED,
            {
                "text": [self.pool[j] for j in self.draws[batch]],
                "views": self.views[batch],
                "day": self.days[batch],
            },
        )

    def batch_of(self, op: int) -> int:
        return self.sizes["warmup_ops"] + op

    def setup(self) -> None:
        s = self.sizes
        self.model = FastTextModel(dim=s["dim"], seed=7).fit(self.sentences, epochs=1)
        self.catalog = Catalog()
        schema = Schema((Field("word", DataType.STRING), Field("wid", DataType.INT64)))
        self.catalog.register(
            "catalog",
            Table.from_arrays(
                schema, {"word": self.words, "wid": np.arange(len(self.words))}
            ),
        )
        self.engine = Engine(self.catalog)
        self.engine.models.register(MODEL, self.model)
        for table in self.warm_tables:
            self.operation(table)

    def teardown(self) -> None:
        self.model = self.catalog = self.engine = None

    def query(self):
        """The cleaning query over the currently registered feed."""
        return (
            self.engine.query("feed")
            .where(Col("views") > VIEWS_CUT)
            .ejoin("catalog", left_on="text", right_on="word", model=MODEL, top_k=1)
            .select(["text", "views", "word", "wid", "similarity"])
        )

    def operation(self, table: Table) -> Table:
        self.catalog.register("feed", table, replace=True)
        return self.query().execute()

    def operate(self, op):
        return self.operation(self.tables[op])

    def verify(self) -> dict:
        recalls, failed = [], 0
        catalog_vecs = self.model.embed_batch(self.words)
        for i, out in sorted(self.kept.items()):
            batch = self.batch_of(i)
            mask = self.views[batch] > VIEWS_CUT
            texts = [self.pool[j] for j in self.draws[batch][mask]]
            if out is None or Counter(out.array("text").tolist()) != Counter(texts):
                failed += 1
                continue
            rows = _even_sample(out.num_rows, self.sizes["checked_rows"])
            got_text = out.array("text")[rows].tolist()
            scores = oracle.scores64(self.model.embed_batch(got_text), catalog_vecs)
            picked = scores[np.arange(len(rows)), out.array("wid")[rows]]
            recalls.append(float((picked >= scores.max(axis=1)).mean()))
        recall = float(np.mean(recalls)) if recalls else 0.0
        return {
            "recall": recall,
            "checked": len(self.kept),
            "failed": failed,
            "below_floor": recall < RECALL_FLOOR,
        }

    def match_accuracy(self, out: Table, batch: int) -> float:
        """Share of joined rows whose word is the generator's ground truth."""
        truth = {self.pool[j]: self.truth[j] for j in self.draws[batch]}
        texts, wids = out.array("text").tolist(), out.array("wid")
        return float(np.mean([truth[t] == w for t, w in zip(texts, wids)]))


# ---------------------------------------------------------------------------
# ejoin_vectors — pre-embedded tensor columns, three access paths + planner
# ---------------------------------------------------------------------------


class EjoinVectors(Workload):
    name = "ejoin_vectors"
    shapes = ("topk_scan", "range_scan", "topk_int8", "topk_auto")

    def __init__(self, sizes, seed):
        super().__init__(sizes, seed)
        rng, s = self.rng, sizes
        centers = _unit32(rng.standard_normal((s["clusters"], s["dim"])))
        self.right = clustered(rng, s["n_right"], centers)
        self.lefts = [
            clustered(rng, s["n_left"], centers) for _ in range(s["left_batches"])
        ]
        self.threshold = _kth_best_threshold(
            self.lefts[0][: min(128, s["n_left"])], self.right, s["top_k"]
        )
        self.input_sha256 = sha256_arrays(self.right, *self.lefts, self.threshold)

    def plan_checks(self, n_ops):
        rounds = _even_sample(n_ops, self.sizes["checked_ops"] // 4, step=4)
        self.keep = {r + j for r in rounds for j in range(4)}

    def left_of(self, op: int) -> int:
        return (op // len(self.shapes)) % len(self.lefts)

    def _vec_table(self, key: str, vectors: np.ndarray) -> Table:
        schema = Schema(
            (
                Field(key, DataType.INT64),
                Field("vec", DataType.TENSOR, dim=vectors.shape[1]),
            )
        )
        return Table.from_arrays(
            schema, {key: np.arange(len(vectors)), "vec": vectors}
        )

    def setup(self) -> None:
        s = self.sizes
        self.catalog = Catalog()
        self.catalog.register("right", self._vec_table("rid", self.right))
        for j, left in enumerate(self.lefts):
            self.catalog.register(f"left_{j}", self._vec_table("lid", left))
        self.engine = Engine(self.catalog)
        # Tensor columns are pre-embedded; the model is only a registry name.
        self.engine.models.register(
            MODEL, HashingEmbedder(dim=s["dim"], n_buckets=1, seed=1)
        )
        start = time.perf_counter()
        self.index = IVFFlatIndex(
            s["dim"], nlist=s["nlist"], nprobe=s["nprobe"], seed=3
        )
        self.index.add(self.right)
        self.index_build_s = time.perf_counter() - start
        self.engine.register_index("right", "vec", self.index)
        for i in range(s["warmup_ops"]):
            self.operate(i)

    def teardown(self) -> None:
        self.catalog = self.engine = self.index = None

    def query(self, shape: str, left: int, *, strategy: str | None = None):
        """The shape's join; ``strategy`` overrides the shape's own hint."""
        if shape == "range_scan":
            terms = dict(threshold=self.threshold)
        else:
            terms = dict(top_k=self.sizes["top_k"])
        hint = {"topk_scan": "parallel-tensor", "topk_int8": "tensor-int8"}.get(shape)
        return (
            self.engine.query(f"left_{left}")
            .ejoin(
                "right", left_on="vec", right_on="vec", model=MODEL,
                strategy=strategy or hint, **terms,
            )
            .select(["lid", "rid", "similarity"])
        )

    def operate(self, op):
        return self.query(self.shape_of(op), self.left_of(op)).execute()

    def verify(self) -> dict:
        s = self.sizes
        by_shape: dict[str, list[float]] = {shape: [] for shape in self.shapes}
        failed = 0
        rows = np.asarray(_even_sample(s["n_left"], s["checked_rows"]))
        for i, out in sorted(self.kept.items()):
            shape = self.shape_of(i)
            if out is None:
                failed += 1
                continue
            recall, valid = oracle.join_recall(
                self.lefts[self.left_of(i)],
                self.right,
                out.array("lid"),
                out.array("rid"),
                rows,
                k=None if shape == "range_scan" else s["top_k"],
                threshold=self.threshold if shape == "range_scan" else None,
            )
            failed += not valid
            by_shape[shape].append(recall)
        shape_recall = {k: float(np.mean(v)) if v else 0.0 for k, v in by_shape.items()}
        below = any(
            r < (RECALL_FLOOR_APPROX if shape == "topk_auto" else RECALL_FLOOR)
            for shape, r in shape_recall.items()
        )
        return {
            "recall": float(np.mean(list(shape_recall.values()))),
            "shape_recall": shape_recall,
            "checked": len(self.kept),
            "failed": failed,
            "below_floor": below,
        }


# ---------------------------------------------------------------------------
# serve_scan / serve_hot — the query service behind the asyncio front
# ---------------------------------------------------------------------------


class _Serve(Workload):
    """Shared corpus, service, front and closed loop.

    ``in_flight`` lanes of one asyncio loop each wait for their reply before
    sending the next request.  ``serve_scan`` keeps 2 outstanding (= nproc;
    with 8 the same loop's run-to-run range was 41%).  ``serve_hot`` keeps 1:
    with 2, cache hits alternate between a served-at-once mode (~0.08 ms) and
    a queued-behind-the-other mode (~0.33 ms), the median falls in the valley
    between them and moved 0.13-0.23 ms between identical runs.
    """

    def __init__(self, sizes, seed):
        super().__init__(sizes, seed)
        s = sizes
        self.centers = _unit32(self.rng.standard_normal((s["clusters"], s["dim"])))
        self.corpus = clustered(self.rng, s["n_corpus"], self.centers)
        self.front = None

    # -- requests -----------------------------------------------------------
    def request(self, op: int) -> tuple[str, np.ndarray, dict]:
        """``(shape, query vector, condition terms)`` of operation ``op``."""
        return self.shape_of(op), self.vector_of(op), self.terms_of(op)

    def vector_of(self, op: int) -> np.ndarray:
        raise NotImplementedError

    def builder(self, vector: np.ndarray, terms: dict):
        return self.engine.query("corpus").esimilar(
            "vec", vector, model=MODEL, **terms
        )

    def terms_of(self, op: int) -> dict:
        """Condition terms of operation ``op`` (``top_k=`` or ``threshold=``)."""
        raise NotImplementedError

    def fresh_vector(self, n: int) -> np.ndarray:
        """The ``n``-th query vector no timed operation uses (ladders)."""
        raise NotImplementedError

    def before_op(self, op: int) -> None:
        """Generator-side work that precedes operation ``op`` (writes)."""

    def write(self) -> None:
        """The write beside the reads: the corpus is registered again."""
        self.catalog.register("corpus", self.table, replace=True)
        self.service.invalidate_table("corpus")

    # -- lifecycle ------------------------------------------------------------
    def setup(self) -> None:
        s = self.sizes
        self.catalog = Catalog()
        schema = Schema(
            (Field("id", DataType.INT64), Field("vec", DataType.TENSOR, dim=s["dim"]))
        )
        self.table = Table.from_arrays(
            schema, {"id": np.arange(s["n_corpus"]), "vec": self.corpus}
        )
        self.catalog.register("corpus", self.table)
        self.engine = Engine(self.catalog)
        self.engine.models.register(
            MODEL, HashingEmbedder(dim=s["dim"], n_buckets=1, seed=1)
        )
        self.service = self.engine.serve(max_inflight=64)
        self.front = AsyncQueryService(self.service, workers=2).start()
        asyncio.run(self._warm())

    async def _warm(self) -> None:
        for vector, terms in self.warmup_requests():
            await self.front.submit(self.builder(vector, terms))

    def warmup_requests(self):
        raise NotImplementedError

    def teardown(self) -> None:
        if self.front is not None:
            asyncio.run(self.front.close())
            self.service.shutdown()
        self.catalog = self.table = self.engine = self.service = self.front = None

    # -- the closed loop --------------------------------------------------------
    def run_ops(self, lo, hi):
        return asyncio.run(self._slice(lo, hi))

    async def _slice(self, lo: int, hi: int):
        samples: list[OpSample | None] = [None] * (hi - lo)
        todo = iter(range(lo, hi))

        async def lane() -> None:
            for i in todo:  # the lanes share one iterator
                self.before_op(i)
                shape, vector, terms = self.request(i)
                table = None
                t0 = time.perf_counter()
                try:
                    response = await self.front.submit(self.builder(vector, terms))
                    table, ok = response.table, not response.degraded
                except Exception:
                    self._failed(f"op {i} ({shape})")
                    ok = False
                samples[i - lo] = OpSample(shape, time.perf_counter() - t0, ok)
                if i in self.keep:
                    self.kept[i] = table

        start = time.perf_counter()
        await asyncio.gather(*(lane() for _ in range(self.sizes["in_flight"])))
        return time.perf_counter() - start, samples

    # -- checks ---------------------------------------------------------------
    def verify(self) -> dict:
        s = self.sizes
        ops = sorted(i for i, t in self.kept.items() if t is not None)
        failed = len(self.kept) - len(ops)
        requests = [self.request(i) for i in ops]
        recalls, valid = oracle.select_recall(
            self.corpus,
            np.stack([vector for _, vector, _ in requests]),
            [self.kept[i].array("id") for i in ops],
            ks=[terms.get("top_k") for _, _, terms in requests],
            thresholds=[terms.get("threshold") for _, _, terms in requests],
        )
        failed += not valid
        # Served results must be bit-identical to serial execution.
        for i in ops[:: max(1, len(ops) // s["identity_ops"])]:
            _, vector, terms = self.request(i)
            serial = self.builder(vector, terms).execute()
            served = self.kept[i]
            same = serial.schema.names == served.schema.names and all(
                np.array_equal(serial.array(n), served.array(n))
                for n in serial.schema.names
            )
            failed += not same
        recall = float(np.mean(recalls))
        return {
            "recall": recall,
            "checked": len(self.kept),
            "failed": failed,
            "below_floor": recall < RECALL_FLOOR,
        }


class ServeScan(_Serve):
    name = "serve_scan"
    shapes = ("topk", "range")

    def __init__(self, sizes, seed):
        super().__init__(sizes, seed)
        s = sizes
        n = s["warmup_ops"] + self.n_ops + FRESH_VECTORS
        self.queries = clustered(self.rng, n, self.centers)  # every vector new
        self.threshold = _kth_best_threshold(
            self.queries[:32], self.corpus, s["range_rows"]
        )
        self.input_sha256 = sha256_arrays(self.corpus, self.queries, self.threshold)

    def terms_of(self, op):
        if op % 2 == 0:
            return dict(top_k=self.sizes["top_k"])
        return dict(threshold=self.threshold)

    def vector_of(self, op):
        return self.queries[self.sizes["warmup_ops"] + op]

    def warmup_requests(self):
        for i in range(self.sizes["warmup_ops"]):
            yield self.queries[i], self.terms_of(i)

    def fresh_vector(self, n):
        return self.queries[self.sizes["warmup_ops"] + self.n_ops + n]


class ServeHot(_Serve):
    name = "serve_hot"
    shapes = ("topk",)

    def __init__(self, sizes, seed):
        super().__init__(sizes, seed)
        s = sizes
        self.pool = clustered(self.rng, s["pool"], self.centers)
        # Every ``write_every`` operations (one slice of the timed phase)
        # start with the write and ask for the same multiset of pool vectors
        # in their own seeded order.
        if s["write_every"] * SLICES != self.n_ops:
            raise ValueError("serve_hot: one write per slice of the timed phase")
        self.draws = np.concatenate(
            [
                zipf_draws(self.rng, s["write_every"], s["pool"], s["zipf"])
                for _ in range(SLICES)
            ]
        )
        self.fresh = clustered(self.rng, FRESH_VECTORS, self.centers)
        self.terms = dict(top_k=s["top_k"])
        self.input_sha256 = sha256_arrays(self.corpus, self.pool, self.draws, self.fresh)

    def terms_of(self, op):
        return self.terms

    def vector_of(self, op):
        return self.pool[self.draws[op]]

    def warmup_requests(self):
        for vector in self.pool:
            yield vector, self.terms

    def fresh_vector(self, n):
        return self.fresh[n]

    def before_op(self, op):
        if op % self.sizes["write_every"] == 0:
            self.write()


WORKLOADS = {
    cls.name: cls for cls in (EjoinStrings, EjoinVectors, ServeScan, ServeHot)
}


def make(name: str, seed: int, *, smoke: bool) -> Workload:
    sizes = (SMOKE if smoke else FULL)[name]
    return WORKLOADS[name](sizes, seed)

