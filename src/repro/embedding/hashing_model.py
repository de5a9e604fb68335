"""Deterministic hashing embedder.

A training-free stand-in for a string embedding model: character n-grams
are hashed into a fixed random-projection table and averaged.  Properties:

* deterministic (same string → same vector, across processes),
* subword-based, so misspellings land *near* the original string — a weak,
  untrained version of the FastText property the paper relies on,
* O(len(s)) per item, so benchmark figures that only need *a* model (and
  count model calls) are not dominated by model compute.

For semantically meaningful similarity (synonyms), use the trainable
:class:`~repro.embedding.fasttext.FastTextModel`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..config import get_config
from .base import EmbeddingModel

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

#: Tokens per pass of :func:`embed_subwords`: the index arrays of a pass
#: (~1.3 KB a token) stay small whatever the batch — embedding 8,000 words
#: in one pass left 8 MB more resident than in passes of this size.
_TOKENS_PER_PASS = 1024


def char_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of ``<token>`` with boundary markers, plus the word.

    Matches FastText's subword scheme: the token is wrapped in ``< >`` and
    n-grams of length ``n_min..n_max`` are extracted; the full wrapped token
    is always included so exact matches dominate.
    """
    wrapped = f"<{token}>"
    grams = [wrapped]
    for n in range(n_min, n_max + 1):
        if n >= len(wrapped):
            continue
        grams.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
    return grams


def hash_ngram(gram: str, n_buckets: int) -> int:
    """FNV-1a hash of an n-gram into ``[0, n_buckets)`` (deterministic)."""
    h = _FNV_OFFSET
    for byte in gram.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) % (1 << 32)
    return h % n_buckets


def subword_buckets(
    tokens: list[str], n_min: int, n_max: int, n_buckets: int, *, unique: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids of every token's subwords, for a whole batch at once.

    The array form of :func:`hash_ngram` over :func:`char_ngrams` (which
    stay as the per-item reference): the batch is laid out as one UTF-8
    byte string ``<t0><t1>...``, every n-gram is a byte range of it, and
    one FNV-1a pass hashes all ranges a byte position at a time.

    Returns ``(buckets, starts)``: token ``i`` owns
    ``buckets[starts[i]:starts[i + 1]]`` in ascending order (``unique``
    drops a token's repeated buckets), so what a token gets never depends
    on what else is in the batch.
    """
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    data = np.frombuffer(
        ("<" + "><".join(tokens) + ">").encode("utf-8"), dtype=np.uint8
    )
    # Byte offset of every character (UTF-8 continuation bytes are
    # 10xxxxxx) and of the end: a character range maps to a byte range.
    byte_at = np.append(np.flatnonzero(data & 0xC0 != 0x80), len(data))
    width = np.fromiter(map(len, tokens), dtype=np.int64, count=n) + 2
    first = np.cumsum(width) - width
    index = np.arange(n)
    # The wrapped token itself, then its n-grams of every size.
    owner, lo, hi = [index], [first], [first + width]
    for size in range(n_min, n_max + 1):
        count = np.where(width > size, width - size + 1, 0)
        own = np.repeat(index, count)
        at = first[own] + np.arange(len(own)) - np.repeat(
            np.cumsum(count) - count, count
        )
        owner.append(own)
        lo.append(at)
        hi.append(at + size)
    owner = np.concatenate(owner)
    lo = byte_at[np.concatenate(lo)]
    length = byte_at[np.concatenate(hi)] - lo
    h = np.full(len(lo), _FNV_OFFSET, dtype=np.uint32)
    prime = np.uint32(_FNV_PRIME)
    for j in range(int(length.max())):
        live = np.flatnonzero(length > j)
        h[live] = (h[live] ^ data[lo[live] + j]) * prime  # wraps mod 2^32
    key = owner * n_buckets + h % n_buckets
    key.sort()
    if unique:
        key = key[np.r_[True, key[1:] != key[:-1]]]
    owner, buckets = np.divmod(key, n_buckets)
    # Every token owns at least its wrapped self, so each starts a group.
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    return buckets, starts


def bucket_means(
    table: np.ndarray, buckets: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Mean ``table`` row of every group of ``buckets`` (groups begin at
    ``starts``).

    One sparse membership product instead of a gather and a segment sum:
    CSR rows accumulate their ``table`` rows in order, so a group's mean is
    bit-equal to ``table[group].mean(axis=0)`` whatever shares the batch,
    and no ``(len(buckets), dim)`` temporary exists (measured on 834
    tokens x 64-d: 0.5 ms, against 6.4 ms for ``np.add.reduceat``).
    """
    bounds = np.append(starts, len(buckets))
    member = sparse.csr_matrix(
        (np.ones(len(buckets), dtype=np.float32), buckets, bounds),
        shape=(len(starts), len(table)),
    )
    return (member @ table) / np.diff(bounds).astype(np.float32)[:, None]


def embed_subwords(
    tokens: list[str],
    table: np.ndarray,
    n_min: int,
    n_max: int,
    *,
    unique: bool = False,
) -> np.ndarray:
    """Mean bucket row of every token's subwords: the batch kernel under
    both subword models, a bounded slice of the batch at a time."""
    out = np.empty((len(tokens), table.shape[1]), dtype=np.float32)
    for lo in range(0, len(tokens), _TOKENS_PER_PASS):
        part = tokens[lo : lo + _TOKENS_PER_PASS]
        out[lo : lo + len(part)] = bucket_means(
            table,
            *subword_buckets(part, n_min, n_max, len(table), unique=unique),
        )
    return out


class HashingEmbedder(EmbeddingModel):
    """Training-free subword hashing embedder."""

    def __init__(
        self,
        dim: int = 64,
        *,
        n_buckets: int = 1 << 15,
        n_min: int = 3,
        n_max: int = 5,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        if not 1 <= n_min <= n_max:
            raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
        self.n_buckets = int(n_buckets)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        seed = get_config().stream_seed("hashing-embedder") if seed is None else seed
        rng = np.random.default_rng(seed)
        # Fixed random projection table: bucket id -> dense vector.
        self._table = rng.standard_normal((self.n_buckets, dim)).astype(np.float32)

    def _embed_batch(self, items: list) -> np.ndarray:
        tokens = [str(item).lower() for item in items]
        return embed_subwords(tokens, self._table, self.n_min, self.n_max)
