"""The batch subword kernel against the per-item reference it replaces.

``char_ngrams`` + ``hash_ngram`` stay as the documented per-item formula;
the reference loops below are the models' old ``_embed_batch`` bodies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import FastTextModel, HashingEmbedder
from repro.embedding.hashing_model import char_ngrams, hash_ngram
from repro.embedding.hashing_model import bucket_means, subword_buckets
from repro.vector.norms import normalize_rows

WORDS = [
    "postgres", "postgrse", "a", "", "ab", "Database", "<x>", "naïve café",
    "日本語テキスト", "x" * 40, "sql", "sql", "ÀÉÎ", "tab\tsep", "emoji 🙂 ok",
]


def _reference_hashing(model: HashingEmbedder, items) -> np.ndarray:
    out = np.zeros((len(items), model.dim), dtype=np.float32)
    for row, item in enumerate(items):
        grams = char_ngrams(str(item).lower(), model.n_min, model.n_max)
        ids = [hash_ngram(g, model.n_buckets) for g in grams]
        out[row] = model._table[ids].mean(axis=0)
    return normalize_rows(out)


def _reference_fasttext(model: FastTextModel, items) -> np.ndarray:
    out = np.empty((len(items), model.dim), dtype=np.float32)
    for row, item in enumerate(items):
        word = str(item).lower()
        wid = model._word_to_id.get(word)
        grams = model._word_grams[wid] if wid is not None else model._gram_ids(word)
        out[row] = model._w_in[grams].mean(axis=0)
    return normalize_rows(out)


@pytest.fixture(scope="module")
def fasttext() -> FastTextModel:
    sentences = [["postgres", "sql", "database", "ab"], ["sql", "sqlite", "mysql"]] * 5
    return FastTextModel(dim=24, n_buckets=1 << 10, seed=3).fit(sentences, epochs=1)


@pytest.mark.parametrize("unique", [False, True])
@pytest.mark.parametrize("n_range", [(3, 5), (1, 2), (2, 7)])
def test_buckets_match_the_per_item_hash(unique, n_range):
    n_min, n_max = n_range
    tokens = [w.lower() for w in WORDS]
    buckets, starts = subword_buckets(tokens, n_min, n_max, 997, unique=unique)
    bounds = [*starts.tolist(), len(buckets)]
    for i, token in enumerate(tokens):
        want = [hash_ngram(g, 997) for g in char_ngrams(token, n_min, n_max)]
        want = sorted(set(want)) if unique else sorted(want)
        assert buckets[bounds[i] : bounds[i + 1]].tolist() == want, token


def test_bucket_means_is_the_group_mean():
    table = np.random.default_rng(0).standard_normal((50, 8)).astype(np.float32)
    buckets = np.array([3, 3, 9, 40, 1, 2, 2, 2, 49])
    starts = np.array([0, 3, 4, 8])
    got = bucket_means(table, buckets, starts)
    for g, (a, b) in enumerate(zip(starts, [*starts[1:], len(buckets)])):
        assert np.array_equal(got[g], table[buckets[a:b]].mean(axis=0))


def test_hashing_batch_equals_reference_loop():
    model = HashingEmbedder(dim=32, n_buckets=1 << 12, seed=5)
    got = model.embed_batch(WORDS)
    assert np.abs(got - _reference_hashing(model, WORDS)).max() <= 1e-6


def test_fasttext_batch_equals_reference_loop(fasttext):
    items = WORDS + fasttext.vocabulary  # out-of-vocabulary and in-vocabulary
    got = fasttext.embed_batch(items)
    assert np.abs(got - _reference_fasttext(fasttext, items)).max() <= 1e-6


@pytest.mark.parametrize("which", ["hashing", "fasttext"])
def test_a_vector_does_not_depend_on_its_batch(which, fasttext):
    """The embed-once store relies on it: ``embed_batch(a + b)[i]`` is
    bit-equal to ``embed_batch([x])[0]``, wherever ``x`` sits and whatever
    surrounds it (including batches longer than one kernel pass)."""
    model = HashingEmbedder(dim=32, seed=5) if which == "hashing" else fasttext
    a = WORDS
    b = [f"filler-{i}" for i in range(1100)] + ["sql", "postgres"]
    joined = model.embed_batch(a + b)
    assert np.array_equal(joined[: len(a)], model.embed_batch(a))
    assert np.array_equal(joined[len(a) :], model.embed_batch(b))
    for i in (0, 3, 8, len(a) + 1024, len(a) + 1101):
        assert np.array_equal(joined[i], model.embed_batch([(a + b)[i]])[0])


def test_usage_counts_one_call_per_item():
    model = HashingEmbedder(dim=8, seed=1)
    model.embed_batch(["x", "y", "x"])
    assert model.usage.calls == 3
    assert model.embed_batch([]).shape == (0, 8)
