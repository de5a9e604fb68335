"""Unit tests for the hashing n-gram embedder."""

import numpy as np
import pytest

from repro.embedding import HashingEmbedder
from repro.embedding.hashing_model import char_ngrams, hash_ngram
from repro.vector import cosine_scalar


class TestCharNgrams:
    def test_includes_wrapped_word(self):
        grams = char_ngrams("cat", 3, 5)
        assert "<cat>" in grams

    def test_boundary_markers(self):
        grams = char_ngrams("cat", 3, 3)
        assert "<ca" in grams
        assert "at>" in grams

    def test_gram_lengths(self):
        grams = char_ngrams("database", 3, 5)
        lengths = {len(g) for g in grams if g != "<database>"}
        assert lengths <= {3, 4, 5}

    def test_short_word(self):
        grams = char_ngrams("ab", 3, 5)
        assert "<ab>" in grams
        assert all(len(g) <= 4 for g in grams)


class TestHashNgram:
    def test_deterministic(self):
        assert hash_ngram("abc", 100) == hash_ngram("abc", 100)

    def test_in_range(self):
        for gram in ["a", "xyz", "<word>"]:
            assert 0 <= hash_ngram(gram, 37) < 37

    def test_different_grams_usually_differ(self):
        buckets = {hash_ngram(f"gram{i}", 1 << 20) for i in range(100)}
        assert len(buckets) > 95


class TestHashingEmbedder:
    def test_deterministic_across_instances(self):
        a = HashingEmbedder(dim=16, seed=5).embed("barbecue")
        b = HashingEmbedder(dim=16, seed=5).embed("barbecue")
        assert np.allclose(a, b)

    def test_case_insensitive(self):
        model = HashingEmbedder(dim=16, seed=5)
        assert np.allclose(model.embed("Word"), model.embed("word"))

    def test_batch_matches_single(self):
        model = HashingEmbedder(dim=16, seed=5)
        batch = model.embed_batch(["alpha", "beta"])
        assert np.allclose(batch[0], model.embed("alpha"))
        assert np.allclose(batch[1], model.embed("beta"))

    def test_misspelling_closer_than_unrelated(self):
        """Shared subwords pull edit-variants together (the FastText
        property the paper relies on, here untrained)."""
        model = HashingEmbedder(dim=64, seed=5)
        word = model.embed("barbecue")
        typo = model.embed("barbeque")
        unrelated = model.embed("xylophone")
        assert cosine_scalar(word, typo) > cosine_scalar(word, unrelated)

    def test_plural_closer_than_unrelated(self):
        model = HashingEmbedder(dim=64, seed=5)
        word = model.embed("cloth")
        plural = model.embed("cloths")
        unrelated = model.embed("quasar")
        assert cosine_scalar(word, plural) > cosine_scalar(word, unrelated)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=8, n_buckets=0)
        with pytest.raises(ValueError):
            HashingEmbedder(dim=8, n_min=4, n_max=3)

    def test_identical_strings_similarity_one(self):
        model = HashingEmbedder(dim=32, seed=5)
        a = model.embed("postgres")
        assert cosine_scalar(a, model.embed("postgres")) == pytest.approx(
            1.0, abs=1e-5
        )
