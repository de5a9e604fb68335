"""One E-join pipeline on the engine's one execution path.

Run with:  python examples/streaming_pipeline.py

Filter -> context-enhanced join -> sort -> limit, declared once through the
query builder: the optimizer pushes the filter and prefetches embeddings,
the planner runs every node as a ``Table`` primitive — the extended
relational algebra of the paper's Figure 4.  Then a per-word count over
the joined column, and the same join through an IVF-Flat index as the
alternative access path.
"""

from __future__ import annotations

import numpy as np

from repro import Catalog, Col, Engine, HashingEmbedder, TopKCondition
from repro.core import index_join
from repro.index import IVFFlatIndex
from repro.workloads import generate_dirty_strings


def main() -> None:
    workload = generate_dirty_strings(n_feed=400, seed=33)
    model = HashingEmbedder(dim=48, seed=33)
    catalog = Catalog()
    catalog.register("feed", workload.feed)
    catalog.register("catalog", workload.catalog)
    engine = Engine(catalog)
    engine.models.register("hash", model)

    def integrate(query):
        return query.ejoin(
            "catalog", left_on="text", right_on="word", model="hash", top_k=1
        )

    popular = integrate(engine.query("feed").where(Col("views") > 1000))
    print("optimized plan:")
    print(popular.explain())

    out = popular.execute().sort_by("similarity", descending=True).head(10)
    assert out.num_rows == 10 and (out.array("views") > 1000).all()
    print("\ntop-10 most confident integrations:")
    for row in out.to_dicts():
        print(f"  {row['text']:>16} -> {row['word']:<14} "
              f"sim={row['similarity']:.3f} views={row['views']}")

    # Group the joined rows by catalog word: how many feed rows map onto
    # each, and how confidently?
    joined = integrate(engine.query("feed")).execute()
    assert joined.num_rows == workload.feed.num_rows  # top-1: one match per row
    words, inverse, counts = np.unique(
        joined.array("word").astype(str), return_inverse=True, return_counts=True
    )
    mean_sim = np.bincount(inverse, weights=joined.array("similarity")) / counts
    print("\nmost-referenced catalog words:")
    for g in np.argsort(-counts, kind="stable")[:5]:
        print(f"  {words[g]:<14} n={counts[g]:<4} avg_sim={mean_sim[g]:.2f}")

    # The same join through an IVF-Flat index (the coarse-quantizer cousin
    # of HNSW): cheap to build, exhaustive within probed clusters.
    words = workload.catalog.array("word").tolist()
    index = IVFFlatIndex(model.dim, nlist=8, nprobe=4, seed=33)
    index.add(model.embed_batch(words))
    probes = model.embed_batch(workload.feed.array("text").tolist())
    via_index = index_join(probes, index, TopKCondition(1))
    print(f"\nIVF-Flat index join: {len(via_index)} matches, "
          f"{index.stats.distance_computations} distance computations "
          f"(vs {len(probes) * len(words)} for a full scan)")


if __name__ == "__main__":
    main()
