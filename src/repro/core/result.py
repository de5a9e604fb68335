"""E-join result set: batch-offset pairs with late materialization.

Following Figure 6 (step 2) the join result is a *sparse set of offset
pairs* — ``(left_id, right_id, similarity)`` triples — rather than
materialized tuples.  This "is more compact as tuples of offsets represent
unique tensor identifiers" (Section IV-C); actual payload columns are only
gathered on demand (:meth:`JoinResult.materialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..errors import JoinError
from ..relational.table import Table


@dataclass
class JoinStats:
    """Execution statistics of one E-join run."""

    strategy: str = ""
    n_left: int = 0
    n_right: int = 0
    pairs_emitted: int = 0
    model_calls: int = 0
    similarity_evaluations: int = 0
    peak_buffer_elements: int = 0
    batch_invocations: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class JoinResult:
    """Sparse pair-offset result of an E-join."""

    left_ids: np.ndarray
    right_ids: np.ndarray
    scores: np.ndarray
    stats: JoinStats = field(default_factory=JoinStats)

    def __post_init__(self) -> None:
        self.left_ids = np.asarray(self.left_ids, dtype=np.int64)
        self.right_ids = np.asarray(self.right_ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float32)
        if not (
            len(self.left_ids) == len(self.right_ids) == len(self.scores)
        ):
            raise JoinError(
                f"ragged result arrays: {len(self.left_ids)}, "
                f"{len(self.right_ids)}, {len(self.scores)}"
            )
        self.stats.pairs_emitted = len(self.left_ids)

    @classmethod
    def empty(cls, stats: JoinStats | None = None) -> "JoinResult":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float32),
            stats or JoinStats(),
        )

    @classmethod
    def concat(cls, parts: list["JoinResult"], stats: JoinStats | None = None) -> "JoinResult":
        """Combine partial results (mini-batch / parallel partitions)."""
        if not parts:
            return cls.empty(stats)
        return cls(
            np.concatenate([p.left_ids for p in parts]),
            np.concatenate([p.right_ids for p in parts]),
            np.concatenate([p.scores for p in parts]),
            stats or JoinStats(),
        )

    def __len__(self) -> int:
        return len(self.left_ids)

    def expand_left(self, inverse: np.ndarray) -> "JoinResult":
        """The join over the rows that a join over their distinct keys
        stands for.

        ``self`` joined one left row per *distinct* key and ``inverse[r]``
        is the key of original row ``r`` (``np.unique(...,
        return_inverse=True)``).  Both condition families are per left
        tuple, so row ``r`` gets exactly its key's pairs: rows ascending,
        a key's pairs in the order the operator emitted them — the order
        the join over all rows would have produced.  Relies on what every
        operator emits: left ids grouped in ascending order.
        """
        inverse = np.asarray(inverse, dtype=np.int64)
        n_keys = int(inverse.max()) + 1 if len(inverse) else 0
        per_key = np.bincount(self.left_ids, minlength=n_keys)
        first = np.cumsum(per_key) - per_key
        per_row = per_key[inverse]
        left_ids = np.repeat(np.arange(len(inverse)), per_row)
        # Pair j of row r is pair j of its key.
        rank = np.arange(len(left_ids)) - np.repeat(
            np.cumsum(per_row) - per_row, per_row
        )
        take = np.repeat(first[inverse], per_row) + rank
        return JoinResult(
            left_ids, self.right_ids[take], self.scores[take], self.stats
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def pairs(self) -> set[tuple[int, int]]:
        """Result as a set of (left, right) offset pairs (order-free)."""
        return set(zip(self.left_ids.tolist(), self.right_ids.tolist()))

    def sorted(self) -> "JoinResult":
        """Canonical ordering: by left id, then right id."""
        order = np.lexsort((self.right_ids, self.left_ids))
        return JoinResult(
            self.left_ids[order],
            self.right_ids[order],
            self.scores[order],
            self.stats,
        )

    def to_sparse(self, shape: tuple[int, int]) -> sparse.coo_matrix:
        """The result as a sparse |R| x |S| score matrix (Figure 6)."""
        return sparse.coo_matrix(
            (self.scores, (self.left_ids, self.right_ids)), shape=shape
        )

    def nbytes(self) -> int:
        """Memory footprint of the offset representation."""
        return int(
            self.left_ids.nbytes + self.right_ids.nbytes + self.scores.nbytes
        )

    # ------------------------------------------------------------------
    # Late materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        left: Table,
        right: Table,
        *,
        prefixes: tuple[str, str] = ("l_", "r_"),
        score_column: str = "similarity",
    ) -> Table:
        """Gather payload columns for the matched offsets.

        This is the late-materialization step: offsets are only exchanged
        for full tuples at the plan position that needs them.
        """
        if len(self.left_ids) and (
            self.left_ids.max() >= left.num_rows
            or self.right_ids.max() >= right.num_rows
        ):
            raise JoinError(
                "result offsets exceed input table sizes; wrong tables passed "
                "to materialize()"
            )
        out = left.take(self.left_ids).zip_columns(
            right.take(self.right_ids), prefixes=prefixes
        )
        from ..relational.column import Column
        from ..relational.schema import DataType, Field

        if score_column:
            out = out.with_column(
                Column(
                    Field(score_column, DataType.FLOAT32),
                    self.scores,
                )
            )
        return out

    def top_per_left(self) -> "JoinResult":
        """Keep only each left id's single best match (utility view)."""
        if len(self) == 0:
            return self
        order = np.lexsort((-self.scores, self.left_ids))
        left_sorted = self.left_ids[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = left_sorted[1:] != left_sorted[:-1]
        keep = order[first]
        return JoinResult(
            self.left_ids[keep], self.right_ids[keep], self.scores[keep], self.stats
        )


class TopKMemo:
    """Each left key's top-k pairs against one right side, kept across joins.

    :meth:`JoinResult.expand_left` carried across queries: a key is a code
    of the embed-once store, and under a top-k condition its pairs against
    one right relation are a function of the key alone, so a key joined
    once need not be scanned again.  Row ``key`` holds ``count[key]`` pairs
    in the order the scan emitted them (score descending, id ascending);
    ``count == -1`` means "never joined".  The rows are three arrays
    indexed by code, grown geometrically like the store's buffer, so a hit
    is a gather, not a Python loop over keys.  Which right registration,
    store and condition a memo stands for is its owner's business
    (``ExecutionContext.topk_memo_for``).
    """

    def __init__(self, width: int) -> None:
        #: Pairs a key can hold: ``min(k, right rows)``.
        self.width = width
        self._rows = (
            np.full(0, -1, dtype=np.int64),
            np.empty((0, width), dtype=np.int64),
            np.empty((0, width), dtype=np.float32),
        )

    @staticmethod
    def bytes_per_key(width: int) -> int:
        """Bytes of one key's row: its count, ``width`` ids and scores."""
        return 8 + 12 * width

    def unknown(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the ``keys`` no join has stored yet."""
        count = self._rows[0]
        out = np.ones(len(keys), dtype=bool)
        inside = keys < len(count)
        out[inside] = count[keys[inside]] < 0
        return out

    def put(self, keys: np.ndarray, joined: JoinResult) -> None:
        """Remember ``joined``, a join whose left row ``i`` is the distinct
        key ``keys[i]``.  A key already known keeps its pairs, so racing
        joins of one key leave what the first one stored.  Callers
        serialize ``put``; readers need no lock — a row is complete before
        its count is set, and growth publishes filled copies.
        """
        count, ids, scores = self._rows
        need = int(keys.max()) + 1 if len(keys) else 0
        if need > len(count):
            grow = max(need, 2 * len(count), 1024) - len(count)
            count = np.concatenate([count, np.full(grow, -1, dtype=np.int64)])
            ids = np.concatenate([ids, np.empty((grow, self.width), dtype=np.int64)])
            scores = np.concatenate(
                [scores, np.empty((grow, self.width), dtype=np.float32)]
            )
        per_key = np.bincount(joined.left_ids, minlength=len(keys))
        fresh = count[keys] < 0
        take = fresh[joined.left_ids]
        rank = np.arange(len(joined)) - (np.cumsum(per_key) - per_key)[joined.left_ids]
        rows = keys[joined.left_ids[take]]
        ids[rows, rank[take]] = joined.right_ids[take]
        scores[rows, rank[take]] = joined.scores[take]
        count[keys[fresh]] = per_key[fresh]
        self._rows = count, ids, scores

    def expand(self, codes: np.ndarray, stats: JoinStats) -> JoinResult:
        """The join over rows whose keys are ``codes``, every one known:
        what :meth:`JoinResult.expand_left` makes of a join over the keys —
        rows ascending, each with its key's pairs in their stored order."""
        count, ids, scores = self._rows
        per_row = count[codes]
        cells = np.repeat(codes * self.width - (np.cumsum(per_row) - per_row), per_row)
        cells += np.arange(len(cells))
        return JoinResult(
            np.repeat(np.arange(len(codes)), per_row),
            ids.ravel()[cells],
            scores.ravel()[cells],
            stats,
        )
