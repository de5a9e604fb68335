"""From-scratch FastText-style subword embedding model.

Reimplements the model family the paper uses as ``mu`` (Bojanowski et al.,
refs [45][46]): each word is the average of hashed character-n-gram bucket
vectors, trained with skip-gram + negative sampling (SGNS) over a corpus.
Properties the paper relies on and which this implementation preserves:

* **out-of-vocabulary embedding** — any string decomposes into n-grams, so
  unseen words (and misspellings) still embed near their neighbours,
* **misspelling resilience** — shared subwords pull edit-variants together,
* **trainable similarity context** — co-occurrence shapes the space, so
  same-topic words (Table II) become nearest neighbours.

Pure NumPy; no external ML dependency.
"""

from __future__ import annotations

import numpy as np

from ..config import get_config
from ..errors import ModelNotFittedError, VocabularyError
from .base import EmbeddingModel
from .hashing_model import (
    bucket_means,
    char_ngrams,
    embed_subwords,
    hash_ngram,
)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class FastTextModel(EmbeddingModel):
    """Trainable subword skip-gram embedding model.

    Usage::

        model = FastTextModel(dim=64)
        model.fit(corpus.sentences, epochs=3)
        vec = model.embed("postgres")          # in-vocabulary
        vec2 = model.embed("postgrse")         # OOV misspelling, still close
        model.nearest_neighbors("dbms", k=15)  # Table II reproduction
    """

    def __init__(
        self,
        dim: int = 64,
        *,
        n_buckets: int = 1 << 14,
        n_min: int = 3,
        n_max: int = 5,
        window: int = 4,
        negatives: int = 5,
        learning_rate: float = 0.05,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        if not 1 <= n_min <= n_max:
            raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if negatives < 0:
            raise ValueError(f"negatives must be >= 0, got {negatives}")
        self.n_buckets = int(n_buckets)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.window = int(window)
        self.negatives = int(negatives)
        self.learning_rate = float(learning_rate)
        self._seed = (
            get_config().stream_seed("fasttext") if seed is None else int(seed)
        )
        rng = np.random.default_rng(self._seed)
        # Input matrix: one row per n-gram bucket (shared across words).
        self._w_in = (
            (rng.random((self.n_buckets, dim)) - 0.5) / dim
        ).astype(np.float32)
        self._fitted = False
        self._vocab: list[str] = []
        self._word_to_id: dict[str, int] = {}
        self._word_grams: list[np.ndarray] = []
        self._w_out: np.ndarray | None = None
        self._neg_table: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Vocabulary / subword machinery
    # ------------------------------------------------------------------
    def _gram_ids(self, word: str) -> np.ndarray:
        grams = char_ngrams(word.lower(), self.n_min, self.n_max)
        ids = sorted({hash_ngram(g, self.n_buckets) for g in grams})
        return np.asarray(ids, dtype=np.int64)

    def _build_vocab(self, sentences: list[list[str]], min_count: int) -> np.ndarray:
        counts: dict[str, int] = {}
        for sent in sentences:
            for token in sent:
                token = token.lower()
                counts[token] = counts.get(token, 0) + 1
        self._vocab = sorted(w for w, c in counts.items() if c >= min_count)
        if not self._vocab:
            raise VocabularyError(
                f"no word occurs >= {min_count} times; corpus too small"
            )
        self._word_to_id = {w: i for i, w in enumerate(self._vocab)}
        self._word_grams = [self._gram_ids(w) for w in self._vocab]
        freqs = np.asarray(
            [counts[w] for w in self._vocab], dtype=np.float64
        )
        return freqs

    def _build_negative_table(
        self, freqs: np.ndarray, table_size: int = 1 << 17
    ) -> None:
        """Unigram^0.75 negative-sampling table (word2vec convention)."""
        probs = freqs**0.75
        probs /= probs.sum()
        counts = np.maximum(1, np.round(probs * table_size).astype(np.int64))
        self._neg_table = np.repeat(
            np.arange(len(self._vocab), dtype=np.int64), counts
        )

    # ------------------------------------------------------------------
    # Training (SGNS)
    # ------------------------------------------------------------------
    def fit(
        self,
        sentences: list[list[str]],
        *,
        epochs: int = 3,
        min_count: int = 1,
        verbose: bool = False,
    ) -> "FastTextModel":
        """Train on tokenized sentences with skip-gram + negative sampling."""
        freqs = self._build_vocab(sentences, min_count)
        self._build_negative_table(freqs)
        rng = np.random.default_rng(self._seed + 1)
        self._w_out = np.zeros((len(self._vocab), self.dim), dtype=np.float32)
        neg_table = self._neg_table
        assert neg_table is not None

        lr = self.learning_rate
        for epoch in range(epochs):
            order = rng.permutation(len(sentences))
            for si in order:
                tokens = [
                    self._word_to_id[t.lower()]
                    for t in sentences[si]
                    if t.lower() in self._word_to_id
                ]
                n = len(tokens)
                for pos, center in enumerate(tokens):
                    grams = self._word_grams[center]
                    h = self._w_in[grams].mean(axis=0)  # hidden vector
                    span = int(rng.integers(1, self.window + 1))
                    lo = max(0, pos - span)
                    hi = min(n, pos + span + 1)
                    grad_h = np.zeros(self.dim, dtype=np.float32)
                    for cpos in range(lo, hi):
                        if cpos == pos:
                            continue
                        context = tokens[cpos]
                        targets = [context]
                        labels = [1.0]
                        if self.negatives:
                            negs = neg_table[
                                rng.integers(len(neg_table), size=self.negatives)
                            ]
                            for neg in negs:
                                if neg != context:
                                    targets.append(int(neg))
                                    labels.append(0.0)
                        t_ids = np.asarray(targets, dtype=np.int64)
                        t_vecs = self._w_out[t_ids]
                        scores = _sigmoid(t_vecs @ h)
                        errs = (scores - np.asarray(labels, dtype=np.float32)) * lr
                        grad_h += errs @ t_vecs
                        self._w_out[t_ids] -= errs[:, None] * h[None, :]
                    # Distribute the hidden gradient over the word's grams.
                    self._w_in[grams] -= grad_h[None, :] / len(grams)
            if verbose:
                print(f"[fasttext] epoch {epoch + 1}/{epochs} done")
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def vocabulary(self) -> list[str]:
        return list(self._vocab)

    def _embed_batch(self, items: list) -> np.ndarray:
        if not self._fitted:
            raise ModelNotFittedError(
                "FastTextModel.fit() must be called before embedding"
            )
        words = [str(item).lower() for item in items]
        wids = list(map(self._word_to_id.get, words))
        # Unseen words hash their subwords now; vocabulary words keep the
        # bucket ids ``fit`` stored for them.
        fresh = [row for row, wid in enumerate(wids) if wid is None]
        seen = [row for row, wid in enumerate(wids) if wid is not None]
        out = np.empty((len(words), self.dim), dtype=np.float32)
        out[fresh] = embed_subwords(
            [words[row] for row in fresh],
            self._w_in,
            self.n_min,
            self.n_max,
            unique=True,
        )
        if seen:
            stored = [self._word_grams[wids[row]] for row in seen]
            sizes = np.fromiter(map(len, stored), dtype=np.int64, count=len(seen))
            out[seen] = bucket_means(
                self._w_in, np.concatenate(stored), np.cumsum(sizes) - sizes
            )
        return out

    def nearest_neighbors(
        self, word: str, k: int = 15, *, exclude_self: bool = True
    ) -> list[tuple[str, float]]:
        """Top-k most cosine-similar vocabulary words (Table II query)."""
        if not self._fitted:
            raise ModelNotFittedError("fit() the model before querying neighbours")
        query = self.embed(word)
        vocab_matrix = self.embed_batch(self._vocab)
        sims = vocab_matrix @ query
        order = np.argsort(-sims, kind="stable")
        results: list[tuple[str, float]] = []
        for idx in order:
            candidate = self._vocab[int(idx)]
            if exclude_self and candidate == word.lower():
                continue
            results.append((candidate, float(sims[int(idx)])))
            if len(results) >= k:
                break
        return results
