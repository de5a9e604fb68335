"""Parent-vs-change differential for ``QueryBuilder.join`` plans.

PR 21 replaced the Volcano ``HashJoin(Scan, Scan)`` the planner borrowed
with ``Table.equi_join``; this runs the same seeded random plans on two
checkouts and compares ``repro.obs.capture.result_digest`` (schema, row
order and column bytes) of every output table::

    git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout -q <rev>
    python tools/diff_equi_join.py --parent /root/scratch/parent [--cases 240]

Cases rotate through int / string keys, duplicate keys on both sides, an
empty side, keys only one side has, a filtered left input, a builder on
the right, and a join feeding an E-join.  Exit status 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def digests(cases: int) -> list[str]:
    import numpy as np

    from repro.embedding import HashingEmbedder
    from repro.obs.capture import result_digest
    from repro.query import Engine
    from repro.relational import Catalog, Col, DataType, Field, Schema, Table

    def table(rng, n, as_strings, domain):
        ints = rng.integers(0, domain, size=n)
        key = Field("k", DataType.STRING if as_strings else DataType.INT64)
        schema = Schema.of(
            key, Field("pos", DataType.INT64), Field("word", DataType.STRING),
            Field("vec", DataType.TENSOR, dim=4),
        )
        return Table.from_arrays(schema, {
            "k": [f"key-{v}" for v in ints] if as_strings else ints,
            "pos": np.arange(n, dtype=np.int64),
            "word": [f"w{v % 5}{'s' * (v % 3)}" for v in ints],
            "vec": rng.standard_normal((n, 4)).astype(np.float32),
        })

    out = []
    for case in range(cases):
        rng = np.random.default_rng(1000 + case)
        kind = case % 6
        n_left = 0 if kind == 1 else int(rng.integers(1, 60))
        n_right = 0 if kind == 2 else int(rng.integers(1, 60))
        domain = 200 if kind == 3 else int(rng.integers(1, 12))  # 3: few or no matches
        catalog = Catalog()
        catalog.register("l", table(rng, n_left, case % 2 == 1, domain))
        catalog.register("r", table(rng, n_right, case % 2 == 1, domain))
        catalog.register("words", table(rng, 30, False, 9))
        engine = Engine(catalog)
        engine.models.register("m", HashingEmbedder(dim=16, seed=5))
        query = engine.query("l")
        if kind == 4:
            query = query.where(Col("pos") >= 3)
            right = engine.query("r").where(Col("pos") < 40)
            query = query.join(right, left_on="k", right_on="k")
        else:
            query = query.join("r", left_on="k", right_on="k")
        if kind == 5:  # the join's output feeds an E-join on a prefixed column
            query = query.ejoin(
                "words", left_on="l_word", right_on="word", model="m", top_k=2
            )
        out.append(result_digest(query.execute()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--cases", type=int, default=240)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(digests(args.cases)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    here = Path(__file__).resolve().parents[1]
    sides = {}
    for name, root in (("parent", args.parent.resolve()), ("change", here)):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, __file__, "--emit", "--cases", str(args.cases)],
            env=env, capture_output=True, text=True, check=True,
        )
        sides[name] = json.loads(done.stdout)
    differing = [
        i for i, (a, b) in enumerate(zip(sides["parent"], sides["change"])) if a != b
    ]
    print(f"{args.cases} join plans, {len(differing)} differences {differing[:10]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
